open Sim

type protocol =
  | Sync_timebound
  | Naive_universal
  | Htlc
  | Weak of Weak_protocol.config
  | Atomic of Atomic_protocol.config

let protocol_name = function
  | Sync_timebound -> "sync-timebound"
  | Naive_universal -> "naive-universal"
  | Htlc -> "htlc"
  | Weak { tm = Weak_protocol.Single; _ } -> "weak-single-tm"
  | Weak { tm = Weak_protocol.Committee { f }; _ } ->
      Printf.sprintf "weak-committee-f%d" f
  | Weak { tm = Weak_protocol.Quorum { qs }; _ } ->
      Printf.sprintf "weak-quorum-%s-n%d-f%d" (Quorum_system.family_name qs)
        (Quorum_system.size qs)
        (Quorum_system.fault_bound qs)
  | Weak { tm = Weak_protocol.Chain { validators }; _ } ->
      Printf.sprintf "weak-chain-m%d" validators
  | Weak { tm = Weak_protocol.Shared { pids; _ }; _ } ->
      Printf.sprintf "weak-shared-committee-%d" (Array.length pids)
  | Atomic _ -> "ilp-atomic"

type network =
  | Sync
  | Psync of { gst : Sim_time.t }
  | Async of { mean : Sim_time.t; cap : Sim_time.t }

type config = {
  hops : int;
  value : int;
  commission : int;
  delta : Sim_time.t;
  sigma : Sim_time.t;
  drift_ppm : int;
  margin : Sim_time.t;
  network : network;
  adversary : Network.adversary option;
  faults : (int * Byzantine.t) list;
  fault_plan : Faults.Fault_plan.t option;
  window_scale : (int * int) option;
  clock_override : (int -> Sim.Clock.t) option;
  causal : Obsv.Causal.t option;
  prof : Obsv.Prof.t option;
  monitor : Obsv.Monitor.t option;
  sampler : Obsv.Sampler.t option;
  on_ready : (outcome -> unit) option;
  seed : int;
  horizon : Sim_time.t option;
  max_events : int;
}

and outcome = {
  config : config;
  protocol : protocol;
  env : Env.t;
  params : Params.t;
  engine : (Msg.t, Obs.t) Sim.Engine.t;
  status : Engine.status;
  trace : (Msg.t, Obs.t) Trace.t;
  end_time : Sim_time.t;
  message_count : int;
  events : int;
  fault_names : (int * string) list;
  tm_pids : int array;
  clocks : Sim.Clock.t array;
  paid_node : int;
  settled_node : int;
  injector : Faults.Injector.t option;
  conformance : int -> (unit, Anta.Conformance.deviation) result option;
}

let default_config ~hops ~seed =
  {
    hops;
    value = 1000;
    commission = 10;
    delta = 100;
    sigma = 10;
    drift_ppm = 10_000;
    margin = 5;
    network = Sync;
    adversary = None;
    faults = [];
    fault_plan = None;
    window_scale = None;
    clock_override = None;
    causal = None;
    prof = None;
    monitor = None;
    sampler = None;
    on_ready = None;
    seed;
    horizon = None;
    max_events = 200_000;
  }

let derive_params cfg protocol =
  let drift =
    match protocol with Naive_universal -> 0 | _ -> cfg.drift_ppm
  in
  let params =
    Params.derive
      {
        Params.hops = cfg.hops;
        delta = cfg.delta;
        sigma = cfg.sigma;
        drift_ppm = drift;
        margin = cfg.margin;
      }
  in
  match cfg.window_scale with
  | None -> params
  | Some (num, den) -> Params.scale_windows params ~num ~den

let network_model cfg =
  match cfg.network with
  | Sync -> Network.Synchronous { delta = cfg.delta }
  | Psync { gst } -> Network.Partially_synchronous { gst; delta = cfg.delta }
  | Async { mean; cap } -> Network.Asynchronous { mean; cap }

let default_horizon cfg params =
  let base = Sim_time.scale params.Params.horizon ~num:10 ~den:1 in
  let net_slack =
    match cfg.network with
    | Sync -> Sim_time.zero
    | Psync { gst } -> Sim_time.scale gst ~num:4 ~den:1
    | Async { cap; _ } -> Sim_time.scale cap ~num:20 ~den:1
  in
  Sim_time.add (Sim_time.add base net_slack) 2_000_000

let process_count ~hops protocol =
  let aux =
    match protocol with
    | Weak wcfg -> Weak_protocol.tm_count wcfg
    | Atomic _ -> 1
    | Sync_timebound | Naive_universal | Htlc -> 0
  in
  (2 * hops) + 1 + aux

let validate_config cfg =
  let fail fmt = Fmt.kstr invalid_arg ("Runner.run: " ^^ fmt) in
  if cfg.hops < 1 then fail "hops must be >= 1 (got %d)" cfg.hops;
  if cfg.value <= 0 then fail "value must be positive (got %d)" cfg.value;
  if cfg.commission < 0 then
    fail "commission must be >= 0 (got %d)" cfg.commission;
  if Sim_time.(cfg.margin < zero) then
    fail "margin must be >= 0 (got %a)" Sim_time.pp cfg.margin;
  match cfg.network with
  | Psync { gst } when Sim_time.(gst < zero) ->
      fail "partially-synchronous GST must be >= 0 (got %a)" Sim_time.pp gst
  | _ -> ()

(* C's structural clause reads only the pid layout: deadline offsets and
   windows never reach [Automaton.check] or [Network_check], so one check
   per (protocol with its TM kind, path length) serves every run. Every
   memo below is published through [Sim.Memo]. *)
module Shape_map = Map.Make (struct
  type t = int * string * int * int

  let compare = compare
end)

(* What [protocol_name] would print, unformatted: the path length, the
   protocol's kind, and the numbers its name carries. *)
let shape_key protocol ~hops =
  match protocol with
  | Sync_timebound -> (hops, "sync-timebound", 0, 0)
  | Naive_universal -> (hops, "naive-universal", 0, 0)
  | Htlc -> (hops, "htlc", 0, 0)
  | Weak { tm = Weak_protocol.Single; _ } -> (hops, "weak-single-tm", 0, 0)
  | Weak { tm = Weak_protocol.Committee { f }; _ } ->
      (hops, "weak-committee", f, 0)
  | Weak { tm = Weak_protocol.Quorum { qs }; _ } ->
      ( hops,
        Quorum_system.family_name qs,
        Quorum_system.size qs,
        Quorum_system.fault_bound qs )
  | Weak { tm = Weak_protocol.Chain { validators }; _ } ->
      (hops, "weak-chain", validators, 0)
  | Weak { tm = Weak_protocol.Shared { pids; _ }; _ } ->
      (hops, "weak-shared-committee", Array.length pids, 0)
  | Atomic _ -> (hops, "ilp-atomic", 0, 0)

let well_formed_memo : (unit, string) result Shape_map.t Atomic.t =
  Atomic.make Shape_map.empty

(* The compiled templates, keyed by exactly the inputs each builder reads:
   the Thm 1 windows for sync (the path length is theirs), the timing
   input for HTLC, the path length and deadline for atomic, and for weak
   the path length, the two customer delays and the TM's shape (its kind
   and replica count; the replicas themselves are hand-written handlers).
   A compiled automaton never changes once built: executors keep their
   state apart and [Byzantine.deviate] builds new automata, so every run
   of a key shares one template, across domains too. A weak config whose
   TM is a shared committee carries a certificate checker, a closure with
   no structural key, so its template is built per run. *)
type template_key =
  | Sync_key of Sim_time.t array * Sim_time.t array
  | Htlc_key of Params.input
  | Atomic_key of int * Sim_time.t
  | Weak_key of int * [ `Single | `Dls of int | `Chain of int ] * Sim_time.t * Sim_time.t

module Template_map = Map.Make (struct
  type t = template_key

  let compare = compare
end)

let sync_memo : Sync_protocol.template Template_map.t Atomic.t =
  Atomic.make Template_map.empty

let htlc_memo : Htlc_protocol.template Template_map.t Atomic.t =
  Atomic.make Template_map.empty

let atomic_memo : Atomic_protocol.template Template_map.t Atomic.t =
  Atomic.make Template_map.empty

let weak_memo : Weak_protocol.template Template_map.t Atomic.t =
  Atomic.make Template_map.empty

let template_of memo key build =
  Memo.find_or_add Template_map.find_opt Template_map.add memo key build

let sync_template (params : Params.t) =
  template_of sync_memo (Sync_key (params.Params.a, params.Params.d))
    (fun () -> Sync_protocol.template params)

let htlc_template (params : Params.t) =
  template_of htlc_memo (Htlc_key params.Params.input) (fun () ->
      Htlc_protocol.template params)

let atomic_template ~hops (acfg : Atomic_protocol.config) =
  template_of atomic_memo (Atomic_key (hops, acfg.Atomic_protocol.deadline))
    (fun () -> Atomic_protocol.template ~hops acfg)

let weak_template (wcfg : Weak_protocol.config) ~hops =
  let build () = Weak_protocol.template wcfg ~hops in
  let tm =
    match wcfg.Weak_protocol.tm with
    | Weak_protocol.Single -> Some `Single
    | Weak_protocol.Committee _ | Weak_protocol.Quorum _ ->
        Some (`Dls (Weak_protocol.tm_count wcfg))
    | Weak_protocol.Chain { validators } -> Some (`Chain validators)
    | Weak_protocol.Shared _ -> None
  in
  match tm with
  | None -> build ()
  | Some tm ->
      template_of weak_memo
        (Weak_key
           (hops, tm, wcfg.Weak_protocol.patience, wcfg.Weak_protocol.deposit_delay))
        build

let check_template protocol ~hops =
  let params = Params.derive (Params.default_input ~hops) in
  match protocol with
  | Sync_timebound | Naive_universal ->
      Anta.Network_check.well_formed (sync_template params)
  | Htlc -> Anta.Network_check.well_formed (htlc_template params)
  | Atomic acfg ->
      Anta.Network_check.well_formed (atomic_template ~hops acfg)
  | Weak wcfg -> Weak_protocol.well_formed wcfg ~hops

let well_formed protocol ~hops =
  let key = shape_key protocol ~hops in
  (* a hit builds no closure *)
  match Shape_map.find_opt key (Atomic.get well_formed_memo) with
  | Some r -> r
  | None ->
      Memo.find_or_add Shape_map.find_opt Shape_map.add well_formed_memo key
        (fun () -> check_template protocol ~hops)

let fault_of_string protocol ~hops spec =
  let params = Params.derive (Params.default_input ~hops) in
  let parse tmpl = Byzantine.fault_of_string (Topology.create ~hops) tmpl spec in
  match protocol with
  | Sync_timebound | Naive_universal -> parse (sync_template params)
  | Htlc -> parse (htlc_template params)
  | Atomic acfg -> parse (atomic_template ~hops acfg)
  | Weak wcfg -> parse (weak_template wcfg ~hops)

(* Build and execute the engine run; [run] below wraps this with the
   post-run telemetry pass. *)
let run_engine cfg protocol =
  validate_config cfg;
  let params = derive_params cfg protocol in
  let topo = Topology.create ~hops:cfg.hops in
  let env =
    Env.make ~topo ~params ~value:cfg.value ~commission:cfg.commission
      ~seed:(cfg.seed + 101) ()
  in
  let tm_pids =
    match protocol with
    | Weak wcfg -> Weak_protocol.tm_pids topo wcfg
    | Atomic _ -> [| Topology.aux_base topo |]
    | _ -> [||]
  in
  Array.iteri (fun k _ -> Topology.register_aux topo k) tm_pids;
  let nprocs = process_count ~hops:cfg.hops protocol in
  let injector =
    match cfg.fault_plan with
    | None -> None
    | Some plan when Faults.Fault_plan.is_none plan -> None
    | Some plan -> (
        match Faults.Fault_plan.validate plan ~nprocs with
        | Error e -> invalid_arg ("Runner.run: bad fault plan: " ^ e)
        | Ok () ->
            Some (Faults.Injector.create ~plan ~seed:(cfg.seed + 47) ()))
  in
  let net_rng = Rng.create ~seed:(cfg.seed + 17) in
  let model =
    match injector with
    | None -> network_model cfg
    | Some inj -> Faults.Injector.jittered_model inj (network_model cfg)
  in
  let network =
    Network.create ?adversary:cfg.adversary
      ?tamper:(Option.map Faults.Injector.tamper injector)
      model net_rng
  in
  let engine =
    Engine.create ~tag_of:Msg.tag ~network ~sigma:cfg.sigma ?prof:cfg.prof
      ?monitor:cfg.monitor ?sampler:cfg.sampler ~seed:cfg.seed ()
  in
  (* blame anchors: the dispatch context under which Bob's payout was
     released (sink of the commit critical path) and Bob's termination *)
  let paid_node = ref (-1) and settled_node = ref (-1) in
  (match cfg.causal with
  | None -> ()
  | Some causal ->
      let fold = Causal_fold.attach engine causal in
      let bob = Topology.bob topo in
      Trace.on_record (Engine.trace engine) (fun entry ->
          match entry with
          | Trace.Observed { obs = Obs.Released { to_; _ }; _ }
            when to_ = cfg.hops && !paid_node < 0 ->
              paid_node := Causal_fold.current_node fold
          | Trace.Observed { obs = Obs.Terminated { pid; _ }; _ }
            when pid = bob && !settled_node < 0 ->
              settled_node := Causal_fold.current_node fold
          | _ -> ()));
  let clock_rng = Rng.create ~seed:(cfg.seed + 31) in
  (* the handlers by pid, from the template edited by the Byzantine
     strategies, and the replay of each pid's honest automaton *)
  let replay tmpl inst pid =
    if pid < Array.length tmpl then
      Some
        (Anta.Conformance.check tmpl.(pid) inst ~pid ~tag_of:Msg.tag
           (Engine.trace engine))
    else None
  in
  let deviants tmpl = Byzantine.deviate env tmpl cfg.faults in
  let automaton, conformance =
    match protocol with
    | Sync_timebound | Naive_universal ->
        let tmpl = sync_template params in
        (Anta.Executor.instantiate (deviants tmpl) env, replay tmpl env)
    | Htlc ->
        let tmpl = htlc_template params in
        let inst = Htlc_protocol.instance env ~seed:(cfg.seed + 57) in
        (Anta.Executor.instantiate (deviants tmpl) inst, replay tmpl inst)
    | Weak wcfg ->
        let tmpl = weak_template wcfg ~hops:cfg.hops in
        let inst = Weak_protocol.instance env wcfg in
        (Weak_protocol.instantiate (deviants tmpl) inst, replay tmpl inst)
    | Atomic acfg ->
        let tmpl = atomic_template ~hops:cfg.hops acfg in
        (Anta.Executor.instantiate (deviants tmpl) env, replay tmpl env)
  in
  let fault_names =
    List.map (fun (pid, s) -> (pid, Byzantine.name s)) cfg.faults
  in
  (* Crashed participants are non-abiding: registering them here lets the
     conditional properties (CS1–CS3) go vacuous instead of blaming the
     protocol for a host we pulled the plug on. *)
  let fault_names =
    match injector with
    | None -> fault_names
    | Some inj ->
        List.fold_left
          (fun acc (c : Faults.Fault_plan.crash_spec) ->
            if List.mem_assoc c.pid acc then acc
            else
              acc
              @ [
                  ( c.pid,
                    match c.recover_at with
                    | None -> "crash-stop"
                    | Some _ -> "crash-recovery" );
                ])
          fault_names
          (Faults.Injector.plan inj).Faults.Fault_plan.crashes
  in
  for pid = 0 to nprocs - 1 do
    let handlers =
      match List.assoc_opt pid cfg.faults with
      | Some s when Byzantine.silent s -> Engine.silent
      | Some _ | None -> automaton pid
    in
    let clock =
      match cfg.clock_override with
      | Some f -> f pid
      | None -> Clock.random clock_rng ~drift_ppm:cfg.drift_ppm
    in
    (* role class, not role_name: profiler labels stay low-cardinality
       constants ("chloe", not "chloe3") *)
    let label =
      match Topology.role_of topo pid with
      | Some Topology.Alice -> "alice"
      | Some Topology.Bob -> "bob"
      | Some (Topology.Connector _) -> "chloe"
      | Some (Topology.Escrow _) -> "escrow"
      | Some (Topology.Aux _) -> "tm"
      | None -> "proc"
    in
    let added = Engine.add_process engine ~clock ~label handlers in
    assert (added = pid)
  done;
  Option.iter
    (fun inj -> Faults.Injector.schedule_crashes inj engine)
    injector;
  let horizon =
    match cfg.horizon with
    | Some h -> h
    | None -> default_horizon cfg params
  in
  (* Everything the safety checks read — the env's books, the growing
     trace, the static fault names — exists before the run starts, so an
     [on_ready] hook can snapshot a provisional outcome and register
     online monitor checks / sampler probes over the {e live} state. The
     placeholder fields (status, end_time, counters) are exactly the ones
     no safety predicate consults. *)
  let provisional status =
    {
      config = cfg;
      protocol;
      env;
      params;
      engine;
      status;
      trace = Engine.trace engine;
      end_time = Engine.now engine;
      message_count = 0;
      events = Engine.events_processed engine;
      fault_names;
      tm_pids;
      clocks = [||];
      paid_node = !paid_node;
      settled_node = !settled_node;
      injector;
      conformance;
    }
  in
  (match cfg.on_ready with
  | None -> ()
  | Some f -> f (provisional Engine.Quiescent));
  let status = Engine.run ~horizon ~max_events:cfg.max_events engine in
  let trace = Engine.trace engine in
  {
    (provisional status) with
    trace;
    end_time = Engine.now engine;
    message_count = Trace.message_count trace;
    events = Engine.events_processed engine;
    clocks = Array.init nprocs (Engine.clock_of engine);
    paid_node = !paid_node;
    settled_node = !settled_node;
  }

(* ----------------------------- telemetry ------------------------------- *)

(* One root span per payment (init -> commit/abort), one child span per
   participant, and under each participant one span per protocol phase —
   the interval between consecutive observable state changes, keyed by the
   observation tag that opened it. All derived from the trace after the
   run, so instrumentation cannot perturb the schedule. *)
let emit_spans o ~terms ~committed ~settled_at =
  let spans = Obsv.Span.default in
  if Obsv.Span.capture spans then begin
    let topo = o.env.Env.topo in
    let root =
      Obsv.Span.start spans ~name:"payment"
        ~attrs:
          [
            ("protocol", protocol_name o.protocol);
            ("hops", string_of_int o.config.hops);
            ("seed", string_of_int o.config.seed);
          ]
        ~at:0 ()
    in
    let n = Array.length o.clocks in
    let obs_by_pid = Array.make n [] in
    List.iter
      (fun (t, pid, obs) ->
        if pid >= 0 && pid < n then
          obs_by_pid.(pid) <- (t, obs) :: obs_by_pid.(pid))
      (Trace.observations o.trace);
    for pid = 0 to n - 1 do
      let pspan =
        Obsv.Span.start spans ~parent:root
          ~name:("participant:" ^ Topology.role_name topo pid)
          ~at:0 ()
      in
      let t_prev = ref 0 and phase = ref "init" in
      List.iter
        (fun (t, obs) ->
          let ph =
            Obsv.Span.start spans ~parent:pspan ~name:("phase:" ^ !phase)
              ~at:!t_prev ()
          in
          Obsv.Span.finish ~at:t ph;
          t_prev := t;
          phase := Obs.tag obs)
        (List.rev obs_by_pid.(pid));
      match List.find_opt (fun (p, _, _) -> p = pid) terms with
      | Some (_, outcome, t) -> Obsv.Span.finish ~status:outcome ~at:t pspan
      | None -> Obsv.Span.finish ~status:"running" ~at:o.end_time pspan
    done;
    Obsv.Span.finish
      ~status:(if committed then "commit" else "abort")
      ~at:settled_at root
  end

let msg_string m = Fmt.str "%a" Msg.pp m
let obs_string o = Fmt.str "%a" Obs.pp o
let trace_jsonl tr = Trace.to_jsonl ~msg:msg_string ~obs:obs_string tr
let ring_json tr = Trace.ring_json ~msg:msg_string ~obs:obs_string tr

let observations outcome = Trace.observations outcome.trace

let terminated_pids outcome =
  List.filter_map
    (fun (t, _, obs) ->
      match obs with
      | Obs.Terminated { pid; outcome } -> Some (pid, outcome, t)
      | _ -> None)
    (observations outcome)

(* A payment's handles, by protocol label, resolved once per registry. *)
module Label_map = Map.Make (String)

type payment_handles = {
  started : Obsv.Metrics.counter;
  commits : Obsv.Metrics.counter;
  aborts : Obsv.Metrics.counter;
  latency : Obsv.Metrics.histogram;
}

(* registered in exposition order: started, committed, aborted, latency *)
let payment_handles reg label =
  let labels = [ ("protocol", label) ] in
  let started =
    Obsv.Metrics.counter reg ~help:"Payments started" ~labels
      "xchain_payments_started_total"
  in
  let commits =
    Obsv.Metrics.counter reg ~help:"Payments where Bob was paid" ~labels
      "xchain_payments_committed_total"
  in
  let aborts =
    Obsv.Metrics.counter reg ~help:"Payments settled without paying Bob"
      ~labels "xchain_payments_aborted_total"
  in
  let latency =
    Obsv.Metrics.histogram reg ~labels
      ~help:"End-to-end payment latency (init to Bob's settlement), ticks"
      "xchain_payment_latency"
  in
  { started; commits; aborts; latency }

let payment_memo =
  Obsv.Metrics.memo (fun _ -> Atomic.make Label_map.empty)

let emit_telemetry o =
  let reg = Obsv.Metrics.default in
  let label = protocol_name o.protocol in
  let h =
    Memo.find_or_add Label_map.find_opt Label_map.add (payment_memo reg) label
      (fun () -> payment_handles reg label)
  in
  let terms = terminated_pids o in
  let bob = Topology.bob o.env.Env.topo in
  let bob_term = List.find_opt (fun (pid, _, _) -> pid = bob) terms in
  let committed =
    match bob_term with Some (_, "paid", _) -> true | _ -> false
  in
  let settled_at =
    match bob_term with Some (_, _, t) -> t | None -> o.end_time
  in
  Obsv.Metrics.inc h.started;
  Obsv.Metrics.inc (if committed then h.commits else h.aborts);
  Obsv.Metrics.observe h.latency settled_at;
  emit_spans o ~terms ~committed ~settled_at

let run cfg protocol =
  let o = run_engine cfg protocol in
  emit_telemetry o;
  o

let balance outcome ~escrow ~pid =
  Ledger.Book.balance outcome.env.Env.books.(escrow) pid
