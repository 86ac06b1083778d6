module A = Anta.Automaton
module Auth = Xcrypto.Auth
module R = Deal_runner

type t =
  | Freeloader
  | Forged_votes
  | Premature_claim
  | Double_claim
  | Vote_hoarder
  | Lazy_claim

let name = function
  | Freeloader -> "freeloader"
  | Forged_votes -> "forged-votes"
  | Premature_claim -> "premature-claim"
  | Double_claim -> "double-claim"
  | Vote_hoarder -> "vote-hoarder"
  | Lazy_claim -> "lazy-claim"

(* the escrows of party [p]'s outgoing (or incoming) legs, as destinations *)
let escrows (cfg : R.config) p ~out =
  List.map (fun k -> (Deal.parties cfg.R.deal + k, false)) (R.legs cfg ~out p)

let head name dsts next = if dsts = [] then next else name ^ "0"

(* Honest up to its vote, which it gossips (and casts, under CBC); then it
   gossips on every Votes message, keeping the votes unchecked, and claims
   only when the timer [lazy] it set at its vote fires, just inside the
   timelock window, if it holds a vote from everyone by then. Its guards
   read the votes it keeps: no replay runs a deviant's own automaton. *)
let lazy_claim (cfg : R.config) p auto =
  let np = Deal.parties cfg.R.deal and claims = escrows cfg p ~out:false in
  let cb = np + Deal.arc_count cfg.R.deal and all = (1 lsl np) - 1 in
  let succs = List.map (fun q -> (q, false)) (Deal.successors cfg.R.deal p) in
  let cast = succs @ if cfg.R.protocol = R.Cbc then [ (cb, false) ] else [] in
  let message to_ (inst : R.inst) _ _ =
    if to_ = cb then Dmsg.Cb_vote inst.R.votes.(p)
    else if to_ < np then Dmsg.Votes (R.known inst p)
    else Dmsg.Claim { arc = to_ - np; votes = R.known inst p }
  in
  let author (sv : R.vote) = sv.Auth.author and parties = List.init np Fun.id in
  let keep (inst : R.inst) _ _ = function
    | Some (Dmsg.Votes vs) ->
        List.iter (fun sv -> Hashtbl.replace inst.R.known.(p) (author sv) sv) vs
    | _ -> ()
  in
  (* a Votes message that completes its set, if [completes], else any *)
  let hear ?(completes = false) next =
    let held (inst : R.inst) vs q =
      Hashtbl.mem inst.R.known.(p) q || List.exists (fun sv -> author sv = q) vs
    in
    A.on_receive ~from_:A.Any ~describe:"votes" ~act:keep ~next ()
      ~accept:(fun inst -> function
        | Dmsg.Votes vs -> (not completes) || List.for_all (held inst vs) parties
        | _ -> false)
  in
  let timer next =
    let step = Sim.Sim_time.add cfg.R.delta cfg.R.sigma in
    let late = Sim.Sim_time.(sub (R.claim_window cfg) (scale step ~num:2 ~den:1)) in
    if claims = [] then []
    else [ A.on_deadline ~timer:"lazy" ~base:"voted" ~offset:late ~next () ]
  in
  let gossip st = head (st ^ "_gossip") succs st in
  let vote st = head (st ^ "_vote") cast st in
  let sends dsts suffix =
    List.concat_map (fun st -> A.script (st ^ suffix) dsts ~next:st message)
  in
  let wait = [ hear ~completes:true (gossip "full"); hear (gossip "lazy") ] in
  let added =
    [
      ("lazy", A.input (timer "late" @ wait));
      ("full", A.input (timer (head "claim" claims "late") @ [ hear (gossip "full") ]));
      ("late", A.input [ hear (gossip "late") ]);
    ]
    @ sends succs "_gossip" [ "lazy"; "full"; "late" ]
    @ sends cast "_vote" [ "lazy"; "full" ]
    @ A.script "claim" claims ~next:"late" message
  in
  (* it hands over to its vote where the honest party does: at its last
     leg's notice, which now also sets the timer's clock, else at birth *)
  let handover s =
    let st = Printf.sprintf "legs%d.k%d" (List.length claims - 1) s in
    match A.node auto st with
    | Some (A.Input (notice :: rest)) ->
        let next = vote (if s = all then "full" else "lazy") in
        [ (st, A.input ({ notice with A.next; save_now = [ "voted" ] } :: rest)) ]
    | _ -> []
  in
  let funds = escrows cfg p ~out:true in
  let deposits = A.outputs auto (A.state_name auto (A.initial_index auto)) in
  match List.rev (List.filter (fun (_, d) -> List.mem d funds) deposits) with
  | _ when claims <> [] ->
      let masks = List.init (all + 1) Fun.id in
      A.rebuild auto ~added ~changed:(List.concat_map handover masks)
  | (last, _) :: _ ->
      A.rebuild auto ~changed:(Option.to_list (A.redirect auto last (vote "lazy"))) ~added
  | [] -> A.rebuild auto ~initial:(vote "lazy") ~added

(* [edit cfg p t auto]: the deviant [t] makes of party [p]'s honest
   automaton [auto], or [None] where the edit does not find its states *)
let edit (cfg : R.config) p t auto =
  let np = Deal.parties cfg.R.deal and claims = escrows cfg p ~out:false in
  let claim st =
    match A.node auto st with
    | Some (A.Output { to_; absolute; _ }) -> List.mem (to_, absolute) claims
    | _ -> false
  in
  let states = A.states auto in
  match t with
  | Freeloader ->
      let vote = Printf.sprintf "vote.k%d.0" (1 lsl p) in
      Option.map (fun _ -> A.rebuild auto ~initial:vote) (A.node auto vote)
  | Forged_votes ->
      let forge (v : R.vote) = Auth.forge_value ~author:v.Auth.author v.Auth.payload in
      let forged to_ (inst : R.inst) _ _ =
        let votes = Array.to_list (Array.map forge inst.R.votes) in
        Dmsg.Claim { arc = to_ - np; votes }
      in
      if claims = [] then None
      else Some (A.rebuild auto ~initial:"forge0" ~added:(A.script "forge" claims forged))
  | Premature_claim ->
      Option.map
        (fun first ->
          let last = fst (List.hd (List.rev (A.outputs auto first))) in
          let stall = Option.to_list (A.redirect auto last A.stall) in
          A.rebuild auto ~initial:first ~changed:stall)
        (List.find_opt claim states)
  | Double_claim -> (
      match List.filter claim states with
      | [] -> None
      | sts ->
          let twice st = Option.get (A.redirect auto st (st ^ "'")) in
          let again st = (st ^ "'", Option.get (A.node auto st)) in
          Some (A.rebuild auto ~changed:(List.map twice sts) ~added:(List.map again sts)))
  | Vote_hoarder -> (
      match List.filter (String.starts_with ~prefix:"voted.") states with
      | [] -> None
      | sts -> Some (A.rebuild auto ~changed:(List.map (fun st -> (st, A.input [])) sts)))
  | Lazy_claim -> Some (lazy_claim cfg p auto)

let run_with_faults (cfg : R.config) ~faults =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let deviant pid auto =
    match List.assoc_opt pid faults with
    | None -> auto
    | Some t -> (
        match edit cfg pid t auto with
        | Some edited -> edited
        | None -> fail "Deal_byzantine: %s does not fit party %d" (name t) pid)
  in
  List.iter
    (fun (p, _) ->
      if p < 0 || p >= Deal.parties cfg.R.deal then
        fail "Deal_byzantine.run_with_faults: party %d is not in the deal" p)
    faults;
  let o = R.execute cfg (R.template cfg) ~edit:deviant in
  let honest p c = c && not (List.mem_assoc p faults) in
  let compliant = Array.mapi honest cfg.R.compliant in
  { o with R.config = { cfg with R.compliant } }
