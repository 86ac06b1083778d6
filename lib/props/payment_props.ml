open Protocols

module F = Payment_fold

type run_view = {
  outcome : Runner.outcome;
  byzantine : int -> bool;
  terminated : int -> (Sim.Sim_time.t * string) option;
  net : int -> int;
  judge : F.judge;
}

let faulty_notaries (outcome : Runner.outcome) =
  match outcome.Runner.protocol with
  | Runner.Weak { Weak_protocol.notary_faults; _ } ->
      Array.fold_left
        (fun acc nf ->
          match nf with Weak_protocol.Notary_honest -> acc | _ -> acc + 1)
        0 notary_faults
  | _ -> 0

let tm_trusted (outcome : Runner.outcome) =
  match outcome.Runner.protocol with
  | Runner.Weak { Weak_protocol.tm = Weak_protocol.Single | Weak_protocol.Chain _; _ }
  | Runner.Atomic _ ->
      true
  | Runner.Weak { Weak_protocol.tm = Weak_protocol.Committee { f }; _ } ->
      faulty_notaries outcome <= f
  | Runner.Weak { Weak_protocol.tm = Weak_protocol.Quorum { qs }; _ } ->
      faulty_notaries outcome <= Quorum_system.fault_bound qs
  | _ -> false

(* [live]: the run has not started, so a trace hook feeds the fold as it
   records; otherwise the finished trace is folded once *)
let make ~live (outcome : Runner.outcome) =
  let faults = outcome.Runner.fault_names in
  let byzantine pid = List.mem_assoc pid faults in
  let env = outcome.Runner.env in
  let topo = env.Env.topo in
  let n = Topology.hops topo in
  let facts =
    F.create ~base:0 ~hops:n
      ~nprocs:(Topology.payment_count topo + Array.length outcome.Runner.tm_pids)
  in
  let trace = outcome.Runner.trace in
  if live then Sim.Trace.on_record trace (F.observe facts)
  else List.iter (F.observe facts) (Sim.Trace.to_list trace);
  let net pid =
    let i = Topology.customer_index topo pid in
    if i < 0 then 0
    else
      let down =
        if i < n then
          Runner.balance outcome ~escrow:i ~pid - Env.amount_at env i
        else 0
      in
      let up =
        if i > 0 then Runner.balance outcome ~escrow:(i - 1) ~pid else 0
      in
      down + up
  in
  {
    outcome;
    byzantine;
    terminated = F.terminated facts;
    net;
    judge =
      {
        F.facts;
        honest = (fun pid -> not (byzantine pid));
        net;
        tm_trusted = tm_trusted outcome;
        well_formed = Runner.well_formed outcome.Runner.protocol ~hops:n;
      };
  }

let view = make ~live:false
let live_view = make ~live:true
let env v = v.outcome.Runner.env
let topo v = (env v).Env.topo
let bob_paid v = v.net (Topology.bob (topo v)) > 0

let money_conserved v = Ledger.Book.first_unsound (env v).Env.books < 0

(* ---- Definition 1 ---- *)

(* T over the honest customers whose escrows abide and that are [active]:
   the first whose termination [late] objects to, if any *)
let termination v ~active ~late ~ok =
  match
    List.find_map
      (fun i ->
        if v.byzantine i || not (F.escrows_abide v.judge i && active i) then
          None
        else late i (v.terminated i))
      (Topology.customers (topo v))
  with
  | None -> Verdict.ok "T" ok
  | Some w -> Verdict.violated "T" w

let check_t ~time_bounded v =
  let params = v.outcome.Runner.params in
  let facts = v.judge.F.facts in
  let bound_for i =
    (* the per-customer a-priori period, when the vector covers this run's
       topology; the global horizon otherwise *)
    if i < Array.length params.Params.customer_bound then
      params.Params.customer_bound.(i)
    else params.Params.horizon
  in
  termination v
    ~active:(fun i -> F.made_payment facts i || F.issued_cert facts i)
    ~late:(fun i -> function
      | None -> Some (Fmt.str "c%d (pid %d) never terminated" i i)
      | Some (time, _) ->
          if time_bounded && Sim.Sim_time.(time > bound_for i) then
            Some
              (Fmt.str "c%d terminated at %a, past its bound %a" i
                 Sim.Sim_time.pp time Sim.Sim_time.pp (bound_for i))
          else None)
    ~ok:
      (if time_bounded then "all active honest customers terminated in bound"
       else "all active honest customers terminated")

let es_ok = Verdict.ok "ES" "no honest escrow lost money"

(* the first honest escrow from [i] on whose book fails its audit or who
   holds a negative balance, or -1 *)
let rec failed_escrow v t i =
  if i = Topology.hops t then -1
  else
    let epid = Topology.escrow t i in
    let book = (env v).Env.books.(i) in
    if
      v.byzantine epid
      || (Result.is_ok (Ledger.Book.audit book)
         && Ledger.Book.balance book epid >= 0)
    then failed_escrow v t (i + 1)
    else i

let check_es v =
  let t = topo v in
  let i = failed_escrow v t 0 in
  if i < 0 then es_ok
  else
    let book = (env v).Env.books.(i) in
    Verdict.violated "ES"
      (match Ledger.Book.audit book with
      | Error e -> Fmt.str "e%d book audit failed: %s" i e
      | Ok () -> Fmt.str "e%d lost money" i)

let no_faults v =
  v.outcome.Runner.fault_names = [] && faulty_notaries v.outcome = 0

let check_l v =
  if not (no_faults v) then Verdict.vacuous "L" "some party does not abide"
  else if bob_paid v then Verdict.ok "L" "Bob was paid"
  else Verdict.violated "L" "all parties abided and Bob was not paid"

let check_def1 ~time_bounded v =
  [
    F.check_c v.judge;
    check_t ~time_bounded v;
    check_es v;
    F.check_cs1 v.judge;
    F.check_cs2 v.judge;
    F.check_cs3 v.judge;
    check_l v;
  ]

(* ---- Definition 2 ---- *)

let check_t_weak v =
  if not v.judge.F.tm_trusted then
    Verdict.vacuous "T" "transaction manager outside its fault assumption"
  else
    termination v
      ~active:(fun _ -> true)
      ~late:(fun i term ->
        if term = None then Some (Fmt.str "c%d never terminated" i) else None)
      ~ok:"all honest customers terminated"

let check_l_weak ~patience_sufficient v =
  if not (no_faults v) then Verdict.vacuous "Lw" "some party does not abide"
  else if not patience_sufficient then
    Verdict.vacuous "Lw" "patience declared insufficient for this schedule"
  else if bob_paid v then Verdict.ok "Lw" "Bob was paid"
  else Verdict.violated "Lw" "patient run, all abided, Bob unpaid"

let check_def2 ~patience_sufficient v =
  [
    F.check_c v.judge;
    F.check_cc v.judge;
    check_t_weak v;
    check_es v;
    F.check_cs1_weak v.judge;
    F.check_cs2_weak v.judge;
    F.check_cs3 v.judge;
    check_l_weak ~patience_sufficient v;
  ]

let check ?(time_bounded = false) ?(patience_sufficient = false) v =
  match F.definition v.outcome.Runner.protocol with
  | F.Def1 -> check_def1 ~time_bounded v
  | F.Def2 -> check_def2 ~patience_sufficient v

let lock_time v =
  let end_time = v.outcome.Runner.end_time in
  let events = Sim.Trace.observations v.outcome.Runner.trace in
  let deposits =
    List.filter_map
      (fun (t, _, o) ->
        match o with
        | Obs.Deposited { escrow; deposit; _ } -> Some ((escrow, deposit), t)
        | _ -> None)
      events
  in
  let resolution key =
    List.find_map
      (fun (t, _, o) ->
        match o with
        | Obs.Released { escrow; deposit; _ }
        | Obs.Refunded { escrow; deposit; _ }
          when (escrow, deposit) = key ->
            Some t
        | _ -> None)
      events
  in
  List.fold_left
    (fun acc (key, t0) ->
      let t1 = Option.value ~default:end_time (resolution key) in
      Sim.Sim_time.add acc (Sim.Sim_time.sub t1 t0))
    Sim.Sim_time.zero deposits
