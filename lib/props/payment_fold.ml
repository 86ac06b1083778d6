open Protocols

(* per-pid flag bits *)
let paid_bit = 1
let issued_bit = 2

let cert_bit = function
  | Obs.Chi -> 4
  | Obs.Chi_commit -> 8
  | Obs.Chi_abort -> 16

type t = {
  base : int;
  hops : int;
  term : (Sim.Sim_time.t * string) option array;
  flow : int array;
  flags : int array;
  mutable decisions : (int * bool) list;  (* newest first *)
  mutable rejections : (int * string) list;  (* newest first *)
  mutable paid_at : Sim.Sim_time.t;
  mutable settled_at : Sim.Sim_time.t;
  mutable unsettled : int;  (* customers yet to terminate *)
}

let create ~base ~hops ~nprocs =
  {
    base;
    hops;
    term = Array.make nprocs None;
    flow = Array.make nprocs 0;
    flags = Array.make nprocs 0;
    decisions = [];
    rejections = [];
    paid_at = -1;
    settled_at = -1;
    unsettled = hops + 1;
  }

let known f pid = pid >= 0 && pid < Array.length f.flow
let add_flow f pid amount =
  if known f pid then f.flow.(pid) <- f.flow.(pid) + amount

let set_flag f pid bit =
  if known f pid then f.flags.(pid) <- f.flags.(pid) lor bit

let observe f (entry : (Msg.t, Obs.t) Sim.Trace.entry) =
  match entry with
  | Sim.Trace.Sent { src; msg = Msg.Money _ | Msg.Htlc_setup _; _ } ->
      set_flag f (src - f.base) paid_bit
  | Sim.Trace.Observed { t; obs; _ } -> (
      match obs with
      | Obs.Deposited { depositor; amount; _ } -> add_flow f depositor (-amount)
      | Obs.Released { to_; amount; _ } ->
          add_flow f to_ amount;
          if to_ = f.hops && f.paid_at < 0 then f.paid_at <- t
      | Obs.Refunded { depositor; amount; _ } -> add_flow f depositor amount
      | Obs.Cert_issued { by; _ } -> set_flag f by issued_bit
      | Obs.Cert_received { pid; kind; valid = true } ->
          set_flag f pid (cert_bit kind)
      | Obs.Decision_made { by; commit } ->
          f.decisions <- (by, commit) :: f.decisions
      | Obs.Terminated { pid; outcome } when known f pid && f.term.(pid) = None
        ->
          f.term.(pid) <- Some (t, outcome);
          if pid <= f.hops then begin
            f.unsettled <- f.unsettled - 1;
            if f.unsettled = 0 then f.settled_at <- t
          end
      | Obs.Rejected { pid; what } ->
          f.rejections <- (pid, what) :: f.rejections
      | _ -> ())
  | _ -> ()

let terminated f pid = if known f pid then f.term.(pid) else None
let flow f pid = if known f pid then f.flow.(pid) else 0
let has f pid bit = known f pid && f.flags.(pid) land bit <> 0
let made_payment f pid = has f pid paid_bit
let issued_cert f pid = has f pid issued_bit
let received_cert f pid kind = has f pid (cert_bit kind)
let rejections f = List.rev f.rejections
let paid_at f = f.paid_at
let settled_at f = f.settled_at

(* ---- judging ---- *)

type judge = {
  facts : t;
  honest : int -> bool;
  net : int -> int;
  tm_trusted : bool;
  well_formed : (unit, string) result;
}

(* escrow i is local pid hops + 1 + i *)
let escrows_abide j i =
  let h = j.facts.hops in
  (i = 0 || j.honest (h + i)) && (i = h || j.honest (h + 1 + i))

let check_c ?(excused = fun _ -> false) j =
  match j.well_formed with
  | Error e -> Verdict.violated "C" ("ill-formed automaton: " ^ e)
  | Ok () -> (
      match
        List.find_opt
          (fun (pid, what) -> j.honest pid && not (excused what))
          (rejections j.facts)
      with
      | Some (pid, what) ->
          Verdict.violated "C" (Fmt.str "pid %d could not abide: %s" pid what)
      | None -> Verdict.ok "C" "every honest step was executable")

(* Alice's clause of CS1 / CS1w: money back or the certificate [chi],
   provided [hyp] and she and her escrow abide *)
let alice_whole j ~prop ~hyp ~vacuous ~chi ~chi_name =
  if not (hyp && j.honest 0 && escrows_abide j 0) then
    Verdict.vacuous prop vacuous
  else
    match terminated j.facts 0 with
    | None -> Verdict.vacuous prop "Alice has not terminated (see T)"
    | Some _ ->
        if j.net 0 >= 0 then Verdict.ok prop "Alice got her money back"
        else if received_cert j.facts 0 chi then
          Verdict.ok prop ("Alice holds " ^ chi_name)
        else
          Verdict.violated prop
            (Fmt.str "Alice terminated with net %d and no %s" (j.net 0)
               chi_name)

let check_cs1 j =
  alice_whole j ~prop:"CS1" ~hyp:true
    ~vacuous:"Alice or her escrow is Byzantine" ~chi:Obs.Chi ~chi_name:"χ"

let check_cs1_weak j =
  alice_whole j ~prop:"CS1w" ~hyp:j.tm_trusted ~vacuous:"hypotheses not met"
    ~chi:Obs.Chi_commit ~chi_name:"χc"

(* Bob's clause of CS2 / CS2w: paid, or [alibi] explains why not *)
let bob_whole j ~prop ~hyp ~vacuous ~alibi =
  let bob = j.facts.hops in
  if not (hyp && j.honest bob && escrows_abide j bob) then
    Verdict.vacuous prop vacuous
  else
    match terminated j.facts bob with
    | None -> Verdict.vacuous prop "Bob has not terminated (see T)"
    | Some _ ->
        if j.net bob > 0 then Verdict.ok prop "Bob was paid" else alibi bob

let check_cs2 j =
  bob_whole j ~prop:"CS2" ~hyp:true ~vacuous:"Bob or his escrow is Byzantine"
    ~alibi:(fun bob ->
      if not (issued_cert j.facts bob) then
        Verdict.ok "CS2" "Bob issued no certificate"
      else Verdict.violated "CS2" "Bob issued χ, terminated, and was not paid")

let check_cs2_weak j =
  bob_whole j ~prop:"CS2w" ~hyp:j.tm_trusted ~vacuous:"hypotheses not met"
    ~alibi:(fun bob ->
      if received_cert j.facts bob Obs.Chi_abort then
        Verdict.ok "CS2w" "Bob holds χa"
      else Verdict.violated "CS2w" "Bob terminated with neither money nor χa")

let check_cs3 j =
  let problem i =
    if
      j.honest i && escrows_abide j i
      && Option.is_some (terminated j.facts i)
      && j.net i < 0
    then Some (Fmt.str "Chloe%d terminated with net %d" i (j.net i))
    else None
  in
  match List.find_map problem (List.init (max 0 (j.facts.hops - 1)) succ) with
  | None -> Verdict.ok "CS3" "every terminated honest connector is whole"
  | Some w -> Verdict.violated "CS3" w

let check_cc j =
  let decided commit =
    List.exists (fun (by, c) -> c = commit && j.honest by) j.facts.decisions
  in
  let accepted kind pid = received_cert j.facts pid kind in
  if decided true && decided false then
    Verdict.violated "CC" "both commit and abort were decided"
  else if
    List.exists
      (fun pid -> accepted Obs.Chi_commit pid && accepted Obs.Chi_abort pid)
      (List.init (j.facts.hops + 1) Fun.id)
  then Verdict.violated "CC" "a customer accepted both χc and χa"
  else Verdict.ok "CC" "at most one certificate kind exists"

(* ---- definition selection ---- *)

type definition = Def1 | Def2

let definition = function
  | Runner.Weak _ | Runner.Atomic _ -> Def2
  | Runner.Sync_timebound | Runner.Naive_universal | Runner.Htlc -> Def1

let safety ?excused ?(preimage_is_receipt = false) protocol =
  let c = ("C", check_c ?excused) in
  match definition protocol with
  | Def1 ->
      let cs1 =
        match protocol with
        | Runner.Htlc when preimage_is_receipt ->
            fun _ -> Verdict.vacuous "CS1" "the preimage is Alice's receipt"
        | _ -> check_cs1
      in
      [ c; ("CS1", cs1); ("CS2", check_cs2); ("CS3", check_cs3) ]
  | Def2 ->
      [
        c;
        ("CC", check_cc);
        ("CS1w", check_cs1_weak);
        ("CS2w", check_cs2_weak);
        ("CS3", check_cs3);
      ]
