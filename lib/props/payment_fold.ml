open Protocols

(* per-pid flag bits *)
let paid_bit = 1
let issued_bit = 2

let cert_bit = function
  | Obs.Chi -> 4
  | Obs.Chi_commit -> 8
  | Obs.Chi_abort -> 16

type t = {
  mutable base : int;
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

let reset f ~base =
  f.base <- base;
  Array.fill f.term 0 (Array.length f.term) None;
  Array.fill f.flow 0 (Array.length f.flow) 0;
  Array.fill f.flags 0 (Array.length f.flags) 0;
  f.decisions <- [];
  f.rejections <- [];
  f.paid_at <- -1;
  f.settled_at <- -1;
  f.unsettled <- f.hops + 1

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

(* ---- judging ----

   A check allocates only to describe a violation: its ok and vacuous
   verdicts are module-level constants and its scans are top-level
   functions, not closures built per call, so the chaos monitor can run
   every check on every dispatch. *)

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

let c_ok = Verdict.ok "C" "every honest step was executable"
let never_excused _ = false

(* The oldest rejection of an honest pid that [excused] does not accept:
   over the newest-first list each match replaces [found], which starts as
   [no_rejection]. *)
let no_rejection = (-1, "")

let rec oldest_unexcused j excused found = function
  | [] -> found
  | ((pid, what) as r) :: rest ->
      oldest_unexcused j excused
        (if j.honest pid && not (excused what) then r else found)
        rest

let check_c ?(excused = never_excused) j =
  match j.well_formed with
  | Error e -> Verdict.violated "C" ("ill-formed automaton: " ^ e)
  | Ok () ->
      let r = oldest_unexcused j excused no_rejection j.facts.rejections in
      if r == no_rejection then c_ok
      else
        let pid, what = r in
        Verdict.violated "C" (Fmt.str "pid %d could not abide: %s" pid what)

(* Alice's clause of CS1 / CS1w: money back or the certificate [chi],
   provided the clause's hypothesis holds and she and her escrow abide *)
type alice_clause = {
  a_prop : string;
  a_chi : Obs.cert_kind;
  a_chi_name : string;
  a_vacuous : Verdict.t;
  a_waiting : Verdict.t;
  a_back : Verdict.t;
  a_holds : Verdict.t;
}

let alice_clause prop ~vacuous ~chi ~chi_name =
  {
    a_prop = prop;
    a_chi = chi;
    a_chi_name = chi_name;
    a_vacuous = Verdict.vacuous prop vacuous;
    a_waiting = Verdict.vacuous prop "Alice has not terminated (see T)";
    a_back = Verdict.ok prop "Alice got her money back";
    a_holds = Verdict.ok prop ("Alice holds " ^ chi_name);
  }

let cs1 =
  alice_clause "CS1" ~vacuous:"Alice or her escrow is Byzantine" ~chi:Obs.Chi
    ~chi_name:"χ"

let cs1w =
  alice_clause "CS1w" ~vacuous:"hypotheses not met" ~chi:Obs.Chi_commit
    ~chi_name:"χc"

let alice_whole j ~hyp c =
  if not (hyp && j.honest 0 && escrows_abide j 0) then c.a_vacuous
  else
    match terminated j.facts 0 with
    | None -> c.a_waiting
    | Some _ ->
        if j.net 0 >= 0 then c.a_back
        else if received_cert j.facts 0 c.a_chi then c.a_holds
        else
          Verdict.violated c.a_prop
            (Fmt.str "Alice terminated with net %d and no %s" (j.net 0)
               c.a_chi_name)

let check_cs1 j = alice_whole j ~hyp:true cs1
let check_cs1_weak j = alice_whole j ~hyp:j.tm_trusted cs1w

(* Bob's clause of CS2 / CS2w: paid, or his [alibi] explains why not *)
type bob_clause = {
  b_vacuous : Verdict.t;
  b_waiting : Verdict.t;
  b_paid : Verdict.t;
  b_alibi : Verdict.t;
  b_unpaid : Verdict.t;
}

let bob_clause prop ~vacuous ~alibi ~unpaid =
  {
    b_vacuous = Verdict.vacuous prop vacuous;
    b_waiting = Verdict.vacuous prop "Bob has not terminated (see T)";
    b_paid = Verdict.ok prop "Bob was paid";
    b_alibi = Verdict.ok prop alibi;
    b_unpaid = Verdict.violated prop unpaid;
  }

let cs2 =
  bob_clause "CS2" ~vacuous:"Bob or his escrow is Byzantine"
    ~alibi:"Bob issued no certificate"
    ~unpaid:"Bob issued χ, terminated, and was not paid"

let cs2w =
  bob_clause "CS2w" ~vacuous:"hypotheses not met" ~alibi:"Bob holds χa"
    ~unpaid:"Bob terminated with neither money nor χa"

let bob_whole j ~hyp ~alibi c =
  let bob = j.facts.hops in
  if not (hyp && j.honest bob && escrows_abide j bob) then c.b_vacuous
  else
    match terminated j.facts bob with
    | None -> c.b_waiting
    | Some _ ->
        if j.net bob > 0 then c.b_paid
        else if alibi then c.b_alibi
        else c.b_unpaid

let check_cs2 j =
  bob_whole j ~hyp:true ~alibi:(not (issued_cert j.facts j.facts.hops)) cs2

let check_cs2_weak j =
  bob_whole j ~hyp:j.tm_trusted
    ~alibi:(received_cert j.facts j.facts.hops Obs.Chi_abort)
    cs2w

let cs3_ok = Verdict.ok "CS3" "every terminated honest connector is whole"

(* the first connector from [i] on who abides, terminated and is out of
   pocket, or -1 *)
let rec short_connector j i =
  if i >= j.facts.hops then -1
  else if
    j.honest i && escrows_abide j i
    && Option.is_some (terminated j.facts i)
    && j.net i < 0
  then i
  else short_connector j (i + 1)

let check_cs3 j =
  let i = short_connector j 1 in
  if i < 0 then cs3_ok
  else
    Verdict.violated "CS3"
      (Fmt.str "Chloe%d terminated with net %d" i (j.net i))

let cc_ok = Verdict.ok "CC" "at most one certificate kind exists"
let cc_both_decided =
  Verdict.violated "CC" "both commit and abort were decided"

let cc_both_accepted =
  Verdict.violated "CC" "a customer accepted both χc and χa"

let rec decided j commit = function
  | [] -> false
  | (by, c) :: rest -> (c = commit && j.honest by) || decided j commit rest

(* some customer at or below [pid] accepted both χc and χa *)
let rec accepted_both f pid =
  pid >= 0
  && ((received_cert f pid Obs.Chi_commit && received_cert f pid Obs.Chi_abort)
     || accepted_both f (pid - 1))

let check_cc j =
  if decided j true j.facts.decisions && decided j false j.facts.decisions
  then cc_both_decided
  else if accepted_both j.facts j.facts.hops then cc_both_accepted
  else cc_ok

(* ---- definition selection ---- *)

type definition = Def1 | Def2

let definition = function
  | Runner.Weak _ | Runner.Atomic _ -> Def2
  | Runner.Sync_timebound | Runner.Naive_universal | Runner.Htlc -> Def1

let htlc_receipt = Verdict.vacuous "CS1" "the preimage is Alice's receipt"
let preimage_receipt _ = htlc_receipt

(* The checks after C, built once: chaos asks for a run's list twice per
   monitored run *)
let def1_rest = [ ("CS1", check_cs1); ("CS2", check_cs2); ("CS3", check_cs3) ]
let htlc_rest = ("CS1", preimage_receipt) :: List.tl def1_rest

let def2_rest =
  [
    ("CC", check_cc);
    ("CS1w", check_cs1_weak);
    ("CS2w", check_cs2_weak);
    ("CS3", check_cs3);
  ]

let c_check = ("C", fun j -> check_c j)

let safety ?excused ?(preimage_is_receipt = false) protocol =
  let c =
    match excused with
    | None -> c_check
    | Some excused -> ("C", check_c ~excused)
  in
  match (definition protocol, protocol) with
  | Def1, Runner.Htlc when preimage_is_receipt -> c :: htlc_rest
  | Def1, _ -> c :: def1_rest
  | Def2, _ -> c :: def2_rest
