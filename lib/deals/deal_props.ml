module Bag = Ledger.Asset.Bag

type verdict = { property : string; holds : bool; detail : string }

(* the property holds unless [failure] names the first counterexample *)
let verdict property ~ok failure =
  match failure with
  | None -> { property; holds = true; detail = ok }
  | Some detail -> { property; holds = false; detail }

let parties (o : Deal_runner.outcome) = List.init (Deal.parties o.config.deal) Fun.id

let safety (o : Deal_runner.outcome) =
  let cfg = o.config in
  verdict "Safety" ~ok:"all payoffs acceptable"
    (List.find_map
       (fun p ->
         let gained = Deal_runner.gained o p and lost = Deal_runner.lost o p in
         if (not cfg.compliant.(p)) || Deal.acceptable cfg.deal p ~gained ~lost then None
         else
           Some
             (Fmt.str "party %d: gained %a, lost %a — unacceptable" p Bag.pp gained
                Bag.pp lost))
       (parties o))

let termination (o : Deal_runner.outcome) =
  verdict "Termination" ~ok:"no compliant asset left in escrow"
    (List.find_map
       (fun (k, p) ->
         if not o.config.compliant.(p) then None
         else Some (Fmt.str "arc %d still holds party %d's asset" k p))
       (Deal_runner.escrowed_forever o))

let strong_liveness (o : Deal_runner.outcome) =
  let cfg = o.config in
  if not (Array.for_all Fun.id cfg.compliant) then
    verdict "StrongLiveness" ~ok:"vacuous: not all parties compliant" None
  else
    verdict "StrongLiveness" ~ok:"all transfers happened"
      (List.find_map
         (fun p ->
           if Bag.geq (Deal_runner.gained o p) (Deal.expected_gain cfg.deal p) then None
           else Some (Fmt.str "party %d did not receive all transfers" p))
         (parties o))

let all outcome = [ safety outcome; termination outcome; strong_liveness outcome ]
let all_hold = List.for_all (fun v -> v.holds)

let pp ppf v =
  Fmt.pf ppf "%-14s %-8s %s" v.property (if v.holds then "ok" else "VIOLATED") v.detail
