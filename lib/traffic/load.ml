open Sim
open Protocols
module Fold = Props.Payment_fold

type outcome = Committed | Aborted | Rejected | Stuck | Violated

let outcome_name = function
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Rejected -> "rejected"
  | Stuck -> "stuck"
  | Violated -> "violated"

type violation = { payment : int; property : string; detail : string }

type routing_stats = {
  topology : string;
  strategy : string;
  max_splits : int;
  offered_value : int;
  committed_value : int;
  paths_selected : int;
  split_payments : int;
  partial_payments : int;
  no_route_rejections : int;
  instances : int;
  instances_committed : int;
  instances_settled : int;
}

type committee_stats = {
  certs : int;
  verdicts : int;
  max_batch : int;
  rounds : int;
  cert_lat_sum : int;
  cert_lat_max : int;
}

type report = {
  workload : Workload.t;
  seed : int;
  plan : string;
  status : string;
  admitted : int;
  committed : int;
  aborted : int;
  rejected : int;
  stuck : int;
  violated : int;
  violations : violation list;
  liquidity_rejections : int;
  conservation_ok : bool;
  latency_p50 : int;
  latency_p95 : int;
  latency_p99 : int;
  latency_max : int;
  makespan : int;
  throughput_cpm : int;
  messages : int;
  max_in_flight : int;
  by_protocol : (string * int * int) list;
  blame : Obsv.Blame.agg option;
  blame_reports : (int * Obsv.Blame.report) list;
  routing : routing_stats option;
  committee_stats : committee_stats option;
  events : int;
  wall_ns : int;
}

(* Shared model parameters for every payment in a load run; per-protocol
   windows are derived from these exactly as Runner does. *)
let delta = 100
let sigma = 10
let margin = 5

(* Auxiliary (TM/notary) processes per protocol. The committee runs with
   f = 1, i.e. 3f+1 = 4 notaries — enough to exercise consensus without
   quadrupling the pid space. *)
let aux_count = function
  | Workload.Sync | Workload.Naive | Workload.Htlc -> 0
  | Workload.Weak_single | Workload.Atomic -> 1
  | Workload.Committee -> 4
  (* shared payments have no per-payment TM: one external committee block
     serves them all (registered after the payment blocks) *)
  | Workload.Shared -> 0

let block_size ~hops proto = (2 * hops) + 1 + aux_count proto

let weak_cfg = Weak_protocol.default_config

let committee_cfg =
  { Weak_protocol.default_config with tm = Weak_protocol.Committee { f = 1 } }

(* the runner protocol a load protocol is judged as *)
let judged_as = function
  | Workload.Sync -> Runner.Sync_timebound
  | Workload.Naive -> Runner.Naive_universal
  | Workload.Htlc -> Runner.Htlc
  | Workload.Weak_single | Workload.Shared -> Runner.Weak weak_cfg
  | Workload.Committee -> Runner.Weak committee_cfg
  | Workload.Atomic -> Runner.Atomic Atomic_protocol.default_config

(* C's structural clause for an instance: the paper automata that sync and
   naive instances run, checked once per path length *)
let well_formed_for proto ~hops =
  match proto with
  | Workload.Sync | Workload.Naive -> Sync_protocol.well_formed ~hops
  | Workload.Htlc | Workload.Weak_single | Workload.Shared
  | Workload.Committee | Workload.Atomic ->
      Ok ()

let params_for (w : Workload.t) proto ~hops =
  let drift = match proto with Workload.Naive -> 0 | _ -> w.drift_ppm in
  Params.derive { Params.hops; delta; sigma; drift_ppm = drift; margin }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = ((q * n) + 99) / 100 in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let is_liquidity_rejection what =
  (* Book.pp_error Insufficient_funds, wrapped by the escrows' "deposit: "
     prefix; Unknown_account prints "deposit: unknown account …" and so
     stays a real violation. *)
  let prefix = "deposit: account" in
  String.length what >= String.length prefix
  && String.sub what 0 (String.length prefix) = prefix

(* [k] of a controller timer label "<kind>#<k>" whose digits start at
   [from], read in place *)
let label_index label from =
  let k = ref 0 in
  for i = from to String.length label - 1 do
    k := (10 * !k) + Char.code label.[i] - Char.code '0'
  done;
  !k

(* [audit] also fails on any negative balance. *)
let book_ok b = Result.is_ok (Ledger.Book.audit b)

(* One protocol instance: a single path of a payment, running the plain
   linear protocol over the books of that path's legs. A payment on a
   linear chain owns exactly one instance (id = payment index); a routed
   payment owns up to [splits] (ids [k * splits + j]). Everything but the
   accounting arrays is configured once the path is known. *)
type inst = {
  mutable i_active : bool;  (** path, amounts and handlers are set *)
  mutable i_hops : int;
  mutable i_value : int;
  mutable i_path : int array;  (** book indices along the path *)
  mutable i_amounts : int array;  (** leg amounts, commissions included *)
  mutable i_handlers : (Msg.t, Obs.t) Engine.handlers array;
      (** one per block slot the protocol uses on this path *)
  mutable i_facts : Fold.t;  (** the instance's property fold *)
  mutable i_done : bool;  (** settlement counted toward the payment *)
  mutable i_released : bool;  (** unspent collateral handed back *)
  i_deposited : int array;  (** per leg: deposits drawn from the payer *)
  i_refunded : int array;  (** per leg: refunds returned to the payer *)
}

(* an inactive instance's fold: it never observes *)
let unconfigured = Fold.create ~base:0 ~hops:0 ~nprocs:0
let paid_at ins = Fold.paid_at ins.i_facts  (* first release to Bob *)
let settled_at ins = Fold.settled_at ins.i_facts  (* every customer done *)

type pay = {
  proto : Workload.proto;
  mutable arrived_at : int;
  mutable admitted_at : int;
  mutable closed : bool;  (** scheduler stopped tracking it *)
  mutable splits : int list;  (** instance ids, ascending *)
  mutable no_route : bool;
  mutable settled : int;  (** instances whose settlement was reported *)
}

(* Where an admitted payment's legs and their liquidity come from: the one
   decision that differs between a linear chain and a payment graph. *)
type legs = {
  lmax : int;  (** the longest path a payment can take *)
  books : Ledger.Book.t array;  (** the shared books, one per hop or edge *)
  book_kind : string;
  fixed : Routing.Router.split list option;
      (** the paths every payment takes, when known before the run *)
  route : unit -> Routing.Router.split list option;
      (** paths and values for the payment at the head of the queue;
          [None] while the liquidity is not there *)
  amounts : int list -> int -> int array;  (** leg amounts on a path *)
  reserve : inst -> unit;  (** hold an admitted instance's legs *)
  on_deposit : inst -> int -> unit;  (** leg [i]'s deposit landed *)
  release : inst -> unit;  (** hand back a settled instance's leftovers *)
  gauges : (string * (unit -> int)) array;  (** sampler columns *)
  checks : (string * (unit -> string option)) list;  (** extra monitor checks *)
  role : Workload.proto -> int -> string;  (** profiler label of block slot *)
}

(* The paper's chain: every payment takes the whole chain at its value,
   over per-hop books whose customer accounts hold the liquidity all
   payments contend for. Under [reserve], admission holds each leg's
   amount against that balance until the leg's deposit lands. *)
let chain_legs (w : Workload.t) =
  let hops = w.hops in
  let topo = Topology.create ~hops in
  let amounts =
    Array.init hops (fun i -> w.value + (w.commission * (hops - 1 - i)))
  in
  let units = if w.liquidity = 0 then w.payments else w.liquidity in
  let books =
    Array.init hops (fun i ->
        let b = Ledger.Book.create ~currency:(Printf.sprintf "cur%d" i) in
        Ledger.Book.open_account b ~owner:(Topology.customer topo i)
          ~balance:(units * amounts.(i));
        Ledger.Book.open_account b
          ~owner:(Topology.customer topo (i + 1))
          ~balance:0;
        Ledger.Book.open_account b ~owner:(Topology.escrow topo i) ~balance:0;
        b)
  in
  let holds = w.policy = Workload.Reserve in
  let reserved = Array.make hops 0 in
  let unreserve i = reserved.(i) <- reserved.(i) - amounts.(i) in
  let path = List.init hops Fun.id in
  let chain = [ { Routing.Router.path; value = w.value } ] in
  let free i =
    Ledger.Book.balance books.(i) (Topology.customer topo i) - reserved.(i)
    >= amounts.(i)
  in
  {
    lmax = hops;
    books;
    book_kind = "escrow";
    fixed = Some chain;
    route =
      (fun () ->
        if holds && not (List.for_all free path) then None else Some chain);
    amounts = (fun _ _ -> amounts);
    reserve =
      (fun _ ->
        if holds then
          Array.iteri (fun i a -> reserved.(i) <- reserved.(i) + a) amounts);
    on_deposit = (fun ins i -> if holds && not ins.i_released then unreserve i);
    release =
      (fun ins ->
        if holds then
          Array.iteri (fun i d -> if d = 0 then unreserve i) ins.i_deposited);
    gauges =
      Array.init hops (fun i ->
          ( Printf.sprintf "escrow%d_pool" i,
            fun () -> Ledger.Book.pool_total books.(i) ));
    checks = [];
    role =
      (fun proto l ->
        if l = 0 then "alice"
        else if l < hops then "chloe"
        else if l = hops then "bob"
        else if l <= 2 * hops then "escrow"
        else if l < block_size ~hops proto then "aux"
        else "idle");
  }

(* A payment graph: the router splits each payment over edge-disjoint
   paths, with one shared book per edge. A funder account holds the edge's
   liquidity; admission moves each leg's amount from the funder to the
   split's local payer account (the transfer IS the reservation), and
   releasing a settled split sweeps the unspent part back. The funder's
   balance is therefore the edge's spendable liquidity, and per-book
   conservation holds by construction. Transfer errors are left to the
   conservation audit: the router checked capacity against the funder
   balances in this same handler. *)
let graph_legs (w : Workload.t) (g : Routing.Topology.t) =
  let module RT = Routing.Topology in
  let module RR = Routing.Router in
  let funder = 1_000_000 in
  let ample = w.payments * (w.value + RT.total_commission g) in
  let books =
    Array.mapi
      (fun e (edge : RT.edge) ->
        let b = Ledger.Book.create ~currency:(Printf.sprintf "edge%d" e) in
        Ledger.Book.open_account b ~owner:funder
          ~balance:(if edge.liquidity = 0 then ample else edge.liquidity);
        b)
      g.RT.edges
  in
  let avail e = Ledger.Book.balance books.(e) funder in
  let router = RR.create ~strategy:w.route g in
  {
    lmax = g.RT.nodes - 1;
    books;
    book_kind = "edge";
    fixed = None;
    route =
      (fun () ->
        Result.to_option
          (RR.route router ~avail ~value:w.value ~max_splits:w.splits));
    amounts = (fun path value -> RR.leg_amounts g ~path ~value);
    reserve =
      (fun ins ->
        Array.iteri
          (fun i e ->
            ignore
              (Ledger.Book.transfer books.(e) ~src:funder ~dst:i
                 ~amount:ins.i_amounts.(i)))
          ins.i_path);
    on_deposit = (fun _ _ -> ());
    (* the payer account may pool several live splits' money (deposits
       draw fungibly), but each split's term is non-negative and their sum
       is the account balance, so sweeping one split's term is covered *)
    release =
      (fun ins ->
        Array.iteri
          (fun i e ->
            let back =
              ins.i_amounts.(i) - ins.i_deposited.(i) + ins.i_refunded.(i)
            in
            if back > 0 then
              ignore
                (Ledger.Book.transfer books.(e) ~src:i ~dst:funder
                   ~amount:back))
          ins.i_path);
    gauges =
      Array.init (Array.length books) (fun e ->
          (Printf.sprintf "edge%d_liquidity" e, fun () -> avail e));
    (* a negative funder balance means reservations overdrew the edge *)
    checks =
      [
        ( "LIQ",
            fun () ->
            let rec scan e =
              if e = Array.length books then None
              else if avail e < 0 then
                Some
                  (Printf.sprintf "edge %d overdrew its liquidity by %d" e
                     (-avail e))
              else scan (e + 1)
            in
            scan 0 );
      ];
    (* the path, hence the role layout, is unknown until admission *)
    role = (fun _ l -> if l = 0 then "alice" else "node");
  }

let run ?(plan = Faults.Fault_plan.none) ?causal ?prof ?monitor ?sampler
    ?recorder ~(workload : Workload.t) ~seed () =
  (match Workload.validate workload with
  | Ok () -> ()
  | Error e -> invalid_arg ("Load.run: " ^ e));
  let wall_t0 = Fleet.now_ns () in
  let w = workload in
  let routed = Option.is_some w.topology in
  let legs =
    match w.topology with None -> chain_legs w | Some g -> graph_legs w g
  in
  let lmax = legs.lmax in
  let protos = Workload.assign_mix w ~seed in
  let arrivals = Workload.arrivals w ~seed in
  let max_splits = w.splits in
  let instances = w.payments * max_splits in
  (* the pid stride must fit the longest path any payment can take *)
  let stride =
    List.fold_left (fun acc (p, _) -> max acc (block_size ~hops:lmax p)) 0 w.mix
  in
  (* Fault plans address hosts: logical pids 0 .. stride-1, applied to
     every instance block (one crashed escrow host is down for everyone). *)
  (match Faults.Fault_plan.validate plan ~nprocs:stride with
  | Ok () -> ()
  | Error e -> invalid_arg ("Load.run: bad fault plan: " ^ e));
  (* A protocol's settle horizon, for the derived stuck deadline. Scratch
     envs (private books) only feed window derivation. *)
  let proto_horizon proto =
    match proto with
    | Workload.Sync | Workload.Naive ->
        (params_for w proto ~hops:lmax).Params.horizon
    | Workload.Htlc ->
        let env0 =
          Env.make ~topo:(Topology.create ~hops:lmax)
            ~params:(params_for w proto ~hops:lmax)
            ~value:w.value ~commission:w.commission ~seed:(seed + 9991) ()
        in
        Htlc_protocol.window_of env0 (Htlc_protocol.default_config env0) 0
    | Workload.Weak_single | Workload.Committee | Workload.Shared ->
        weak_cfg.patience
    | Workload.Atomic -> Atomic_protocol.default_config.deadline
  in
  let gst_slack = match w.gst with Some g -> 2 * g | None -> 0 in
  let stuck_eff =
    if w.stuck_after > 0 then w.stuck_after
    else
      let base =
        List.fold_left (fun acc (p, _) -> max acc (proto_horizon p)) 0 w.mix
      in
      (* ×4 absorbs clock drift and queueing inside the protocol windows *)
      (4 * base) + (20 * delta) + gst_slack
  in
  let horizon =
    let last_arrival =
      match arrivals with
      | Some arr -> arr.(Array.length arr - 1)
      | None -> (
          match w.arrival with
          | Workload.Closed { clients; think } ->
              let rounds = (w.payments + clients - 1) / clients in
              rounds * (w.patience + stuck_eff + think + 1)
          | _ -> 0)
    in
    last_arrival + w.patience + (2 * stuck_eff) + (20 * delta) + gst_slack
  in
  let max_events =
    (1000 * instances) + 100_000
    (* committee consensus traffic is quadratic in committee size per
       certified slot; give it headroom without touching the budget of
       committee-less runs *)
    + (match w.committee with
      | Some c ->
          let slots = (instances + c.c_batch - 1) / c.c_batch in
          (slots + (4 * c.c_pipeline)) * 4 * c.c_size * c.c_size
      | None -> 0)
  in
  (* --- network: model + fault injection, control traffic exempt --- *)
  let injector =
    if Faults.Fault_plan.is_none plan then None
    else Some (Faults.Injector.create ~plan ~seed:(seed + 47) ())
  in
  let model =
    let base =
      match w.gst with
      | None -> Network.Synchronous { delta }
      | Some gst -> Network.Partially_synchronous { gst; delta }
    in
    match injector with
    | None -> base
    | Some inj -> Faults.Injector.jittered_model inj base
  in
  (* the controller (pid 0) and the shared committee block (pids past the
     instance blocks) are outside the plan's pid space and stay exempt *)
  let payment_limit = 1 + (instances * stride) in
  let tamper =
    Option.map
      (fun inj ->
        let tam = Faults.Injector.tamper inj in
        fun ~send_time ~src ~dst ~tag ->
          if src = 0 || dst = 0 || src >= payment_limit || dst >= payment_limit
          then [ Network.Intact ]
          else
            tam ~send_time
              ~src:((src - 1) mod stride)
              ~dst:((dst - 1) mod stride)
              ~tag)
      injector
  in
  let adversary ~send_time:_ ~src:_ ~dst:_ ~tag ~bounds =
    if tag = "start" || tag = "traffic-done" then Some bounds.Network.lo
    else None
  in
  let network =
    Network.create ~adversary ?tamper ~link_stats:false model
      (Rng.create ~seed:(seed + 17))
  in
  (* nothing reads the trace back: accounting is fed by a hook *)
  let engine =
    Engine.create ~tag_of:Msg.tag ~network ~sigma ~trace_capacity:0
      ?causal ?prof ?monitor ?sampler ~seed ()
  in
  (* --- per-instance accounting state, fed by a trace hook --- *)
  let insts =
    Array.init instances (fun _ ->
        {
          i_active = false;
          i_hops = 0;
          i_value = 0;
          i_path = [||];
          i_amounts = [||];
          i_handlers = [||];
          i_facts = unconfigured;
          i_done = false;
          i_released = false;
          i_deposited = Array.make lmax 0;
          i_refunded = Array.make lmax 0;
        })
  in
  let pays =
    Array.init w.payments (fun k ->
        {
          proto = protos.(k);
          arrived_at = -1;
          admitted_at = -1;
          closed = false;
          splits = [];
          no_route = false;
          settled = 0;
        })
  in
  let messages = ref 0 in
  (* causal anchors: each payment's arrival note (blame root) and each
     instance's deliver that paid Bob (blame sink), captured from the
     dispatch context *)
  let roots = Array.make w.payments (-1) in
  let paid_nodes = Array.make instances (-1) in
  (* each active instance's entries feed its fold; the legs' liquidity
     accounting rides on the same deposits and refunds *)
  let instance_of pid =
    if pid >= 1 && pid < payment_limit then
      let id = (pid - 1) / stride in
      if insts.(id).i_active then id else -1
    else -1
  in
  Trace.on_record (Engine.trace engine) (fun entry ->
      match entry with
      | Trace.Sent { src; _ } ->
          incr messages;
          let id = instance_of src in
          if id >= 0 then Fold.observe insts.(id).i_facts entry
      | Trace.Observed { pid; obs; _ } -> (
          let id = instance_of pid in
          if id >= 0 then begin
            let ins = insts.(id) in
            let unpaid = paid_at ins < 0 in
            Fold.observe ins.i_facts entry;
            if unpaid && paid_at ins >= 0 then
              paid_nodes.(id) <- Engine.current_node engine;
            (* depositor index IS the leg index: customer i deposits only
               at escrow i, at most once *)
            match obs with
            | Obs.Deposited { depositor; amount; _ }
              when depositor >= 0 && depositor < ins.i_hops ->
                if ins.i_deposited.(depositor) = 0 then
                  legs.on_deposit ins depositor;
                ins.i_deposited.(depositor) <-
                  ins.i_deposited.(depositor) + amount
            | Obs.Refunded { depositor; amount; _ }
              when depositor >= 0 && depositor < ins.i_hops ->
                ins.i_refunded.(depositor) <- ins.i_refunded.(depositor) + amount
            | _ -> ()
          end)
      | _ -> ());
  (* --- shared batching committee: one block after the instance blocks,
     serving every instance's verdict item --- *)
  let shared_committee =
    Option.map
      (fun (c : Workload.committee) ->
        let creg = Xcrypto.Auth.create ~seed:(seed + 71) in
        let signers =
          Array.init c.c_size (fun i -> Xcrypto.Auth.register creg i)
        in
        let ccfg =
          {
            Committee_tm.qs = Result.get_ok (Workload.quorum_system c);
            registry = creg;
            batch_cap = c.c_batch;
            pipeline = c.c_pipeline;
            base_timeout = weak_cfg.Weak_protocol.tm_base_timeout;
            (* verdict items are instance ids: only this run's shared
               handlers issue requests *)
            reply_to =
              (fun id ->
                Array.init
                  ((2 * insts.(id).i_hops) + 1)
                  (fun l -> 1 + (id * stride) + l));
            hops_of = (fun id -> insts.(id).i_hops);
          }
        in
        (* one certificate checker, and so one memo, per run *)
        (c, ccfg, signers, Committee_tm.verify ccfg ~signer:signers.(0)))
      w.committee
  in
  let handlers_for proto env id =
    match proto with
    | Workload.Sync | Workload.Naive ->
        fun l ->
          fst (Anta.Executor.handlers (Sync_protocol.automaton_for env l) ())
    | Workload.Htlc ->
        let cfg = Htlc_protocol.default_config env in
        let preimage = Htlc_protocol.fresh_preimage ~seed:(seed + 57 + id) in
        Htlc_protocol.handlers_for env cfg preimage
    | Workload.Weak_single -> Weak_protocol.handlers_for env weak_cfg
    | Workload.Committee -> Weak_protocol.handlers_for env committee_cfg
    | Workload.Shared ->
        (* validation guarantees the committee= spec *)
        let c, _, _, verify = Option.get shared_committee in
        Weak_protocol.handlers_for env
          {
            weak_cfg with
            Weak_protocol.tm =
              Weak_protocol.Shared
                {
                  pids = Array.init c.c_size (fun i -> payment_limit + i);
                  item = id;
                  verify;
                };
          }
    | Workload.Atomic ->
        Atomic_protocol.handlers_for env Atomic_protocol.default_config
  in
  let configure id proto (s : Routing.Router.split) =
    let path = Array.of_list s.path in
    let h = Array.length path in
    let amounts = legs.amounts s.path s.value in
    let env =
      Env.make ~topo:(Topology.create ~hops:h)
        ~params:(params_for w proto ~hops:h)
        ~payment:id ~value:s.value ~amounts ~seed:(seed + 101 + id)
        ~books:(Array.map (fun e -> legs.books.(e)) path)
        ()
    in
    let ins = insts.(id) in
    ins.i_active <- true;
    ins.i_facts <- Fold.create ~base:(1 + (id * stride)) ~hops:h ~nprocs:(h + 1);
    ins.i_hops <- h;
    ins.i_value <- s.value;
    ins.i_path <- path;
    ins.i_amounts <- amounts;
    ins.i_handlers <-
      Array.init (block_size ~hops:h proto) (handlers_for proto env id)
  in
  (* Paths known before the run are configured here, not at admission:
     building envs and handlers inside the event loop measured 4-7% slower
     end to end on a 2k-payment chain (two-core x86-64 VM). *)
  Option.iter
    (fun splits ->
      for k = 0 to w.payments - 1 do
        List.iteri
          (fun j s -> configure ((k * max_splits) + j) protos.(k) s)
          splits
      done)
    legs.fixed;
  (* --- controller (pid 0): arrivals, admission, deadlines --- *)
  let queue = Queue.create () in
  let in_flight = ref 0 in
  let max_in_flight = ref 0 in
  let admitted = ref 0 in
  let total_paths = ref 0 in
  let split_payments = ref 0 in
  let arr_label k = "arr#" ^ string_of_int k in
  let pat_label k = "pat#" ^ string_of_int k in
  let stuck_label k = "stuck#" ^ string_of_int k in
  let start_instance ctx k j s =
    let id = (k * max_splits) + j in
    let ins = insts.(id) in
    if not ins.i_active then configure id pays.(k).proto s;
    legs.reserve ins;
    (* Queue edge from the arrival note: the gap the walk crosses here is
       exactly this payment's wait behind admission *)
    ignore
      (Engine.causal_note ctx ~after:roots.(k) ~trace:id
         ~label:("admit#" ^ string_of_int id)
         ());
    let base = 1 + (id * stride) in
    for l = 0 to Array.length ins.i_handlers - 1 do
      Engine.send ctx ~dst:(base + l) Msg.Start
    done;
    id
  in
  let try_admit ctx k =
    let p = pays.(k) in
    (w.cap = 0 || !in_flight < w.cap)
    &&
    match legs.route () with
    | None ->
        p.no_route <- true;
        false
    | Some splits ->
        p.admitted_at <- Engine.now engine;
        incr admitted;
        incr in_flight;
        if !in_flight > !max_in_flight then max_in_flight := !in_flight;
        total_paths := !total_paths + List.length splits;
        if List.length splits > 1 then incr split_payments;
        p.splits <- List.mapi (start_instance ctx k) splits;
        Engine.set_timer_after ctx ~after:stuck_eff ~label:(stuck_label k);
        Engine.cancel_timer ctx ~label:(pat_label k);
        true
  in
  let drain ctx =
    let blocked = ref false in
    while (not !blocked) && not (Queue.is_empty queue) do
      let k = Queue.peek queue in
      let p = pays.(k) in
      if p.closed || p.admitted_at >= 0 then ignore (Queue.pop queue)
      else if try_admit ctx k then ignore (Queue.pop queue)
      else blocked := true
    done
  in
  let close ctx k =
    let p = pays.(k) in
    if not p.closed then begin
      p.closed <- true;
      if p.admitted_at >= 0 then decr in_flight;
      (* settled instances hand back their unspent collateral; an
         unsettled (stuck) one may still deposit, and releasing its
         reservation would double-spend the collateral *)
      List.iter
        (fun id ->
          let ins = insts.(id) in
          if settled_at ins >= 0 then begin
            ins.i_released <- true;
            legs.release ins
          end)
        p.splits;
      Engine.cancel_timer ctx ~label:(stuck_label k);
      (match w.arrival with
      | Workload.Closed { clients; think } ->
          let next = k + clients in
          if next < w.payments then
            Engine.set_timer_after ctx ~after:(max 1 think)
              ~label:(arr_label next)
      | _ -> ());
      drain ctx
    end
  in
  let arrive ctx k =
    pays.(k).arrived_at <- Engine.now engine;
    roots.(k) <-
      Engine.causal_note ctx ~trace:(k * max_splits)
        ~label:("arrive#" ^ string_of_int k)
        ();
    Queue.add k queue;
    Engine.set_timer_after ctx ~after:w.patience ~label:(pat_label k);
    drain ctx
  in
  let controller =
    {
      Engine.on_start =
        (fun ctx ->
          match arrivals with
          | Some arr ->
              Array.iteri
                (fun k t ->
                  Engine.set_timer ctx ~deadline:t ~label:(arr_label k))
                arr
          | None -> (
              match w.arrival with
              | Workload.Closed { clients; _ } ->
                  for c = 0 to min clients w.payments - 1 do
                    (* 1-tick stagger keeps first-round admission ordered *)
                    Engine.set_timer ctx ~deadline:(1 + c)
                      ~label:(arr_label c)
                  done
              | _ -> assert false));
      on_receive =
        (fun ctx ~src:_ msg ->
          match msg with
          | Msg.Traffic_done { payment = id } ->
              let ins = insts.(id) in
              let k = id / max_splits in
              let p = pays.(k) in
              if ins.i_active && (not ins.i_done) && settled_at ins >= 0
              then begin
                ins.i_done <- true;
                p.settled <- p.settled + 1;
                if p.settled = List.length p.splits then close ctx k
              end
          | _ -> ());
      on_timer =
        (fun ctx ~label ->
          if String.starts_with ~prefix:"arr#" label then
            arrive ctx (label_index label 4)
          else if String.starts_with ~prefix:"pat#" label then begin
            let k = label_index label 4 in
            if pays.(k).admitted_at < 0 then close ctx k
          end
          else if String.starts_with ~prefix:"stuck#" label then
            close ctx (label_index label 6))
    }
  in
  let cpid =
    Engine.add_process engine ~clock:Clock.perfect ~label:"sched" controller
  in
  assert (cpid = 0);
  (* --- instance blocks: every process is a buffering shell that comes
     alive on Start, running its slot of the instance's handlers --- *)
  let clock_rng = Rng.create ~seed:(seed + 31) in
  let shell ~id ~l ~abs ~skew =
    let ins = insts.(id) in
    let started = ref false in
    let reported = ref false in
    let buffered = ref [] in
    let after_inner ctx =
      if l <= ins.i_hops && (not !reported) && Engine.is_halted engine abs
      then begin
        reported := true;
        Engine.send_absolute ctx ~dst:0 (Msg.Traffic_done { payment = id })
      end
    in
    {
      Engine.on_start = (fun _ -> ());
      on_receive =
        (fun ctx ~src msg ->
          match msg with
          | Msg.Start ->
              if (not !started) && l < Array.length ins.i_handlers then begin
                started := true;
                (* re-anchor the local epoch: the protocol's absolute local
                   deadlines must count from this instance's own start, not
                   from engine time 0 *)
                let num, den = Clock.rate (Engine.clock_of engine abs) in
                Engine.set_clock engine ~pid:abs
                  (Clock.create ~l0:skew ~g0:(Engine.now engine) ~num ~den ());
                let h = ins.i_handlers.(l) in
                h.Engine.on_start ctx;
                let pending = List.rev !buffered in
                buffered := [];
                List.iter
                  (fun (src, m) ->
                    if not (Engine.is_halted engine abs) then
                      h.Engine.on_receive ctx ~src m)
                  pending;
                after_inner ctx
              end
          | _ ->
              if !started then begin
                ins.i_handlers.(l).Engine.on_receive ctx ~src msg;
                after_inner ctx
              end
              else buffered := (src, msg) :: !buffered);
      on_timer =
        (fun ctx ~label ->
          if !started then begin
            ins.i_handlers.(l).Engine.on_timer ctx ~label;
            after_inner ctx
          end);
    }
  in
  for id = 0 to instances - 1 do
    let base = 1 + (id * stride) in
    let proto = protos.(id / max_splits) in
    for l = 0 to stride - 1 do
      let clock = Clock.random clock_rng ~drift_ppm:w.drift_ppm in
      let skew = Rng.int clock_rng 1001 in
      (* profiler role labels: constant strings, interned only when the
         engine carries a profiler *)
      ignore
        (Engine.add_process engine ~clock ~base ~label:(legs.role proto l)
           (shell ~id ~l ~abs:(base + l) ~skew))
    done
  done;
  (* the shared committee's replicas form one block right after the
     instance blocks; [c_faulty] of them (never the sequencer) are
     crash-silent from the start *)
  let sequencer_com = ref None in
  Option.iter
    (fun ((c : Workload.committee), ccfg, signers, _) ->
      for i = 0 to c.c_size - 1 do
        let handlers =
          if i >= 1 && i <= c.c_faulty then Engine.silent
          else begin
            let handlers, com =
              Committee_tm.handlers ccfg ~index:i ~signer:signers.(i)
            in
            if i = 0 then sequencer_com := Some com;
            handlers
          end
        in
        let pid =
          Engine.add_process engine ~clock:Clock.perfect ~base:payment_limit
            ~label:"notary" handlers
        in
        assert (pid = payment_limit + i)
      done)
    shared_committee;
  (* host crashes expand to every instance block *)
  List.iter
    (fun (c : Faults.Fault_plan.crash_spec) ->
      for id = 0 to instances - 1 do
        Engine.schedule_crash engine
          ~pid:(1 + (id * stride) + c.pid)
          ~at:c.at ?recover_at:c.recover_at ()
      done)
    plan.Faults.Fault_plan.crashes;
  (* Online checks: exactly the run's post-hoc conservation audit
     re-evaluated on every dispatch, so the monitor's final verdict agrees
     with the report's [conservation_ok] by construction, plus the legs'
     own invariants *)
  Option.iter
    (fun m ->
      Obsv.Monitor.register m ~name:"M" (fun () ->
          let rec scan i =
            if i = Array.length legs.books then None
            else if not (book_ok legs.books.(i)) then
              Some
                (Printf.sprintf
                   "shared %s book %d failed its conservation audit"
                   legs.book_kind i)
            else scan (i + 1)
          in
          scan 0);
      List.iter
        (fun (name, check) -> Obsv.Monitor.register m ~name check)
        legs.checks)
    monitor;
  Option.iter
    (fun s ->
      let columns =
        "queue_depth" :: "in_flight" :: "admitted"
        :: Array.to_list (Array.map fst legs.gauges)
      in
      Obsv.Sampler.set_probe s ~columns (fun () ->
          Array.init
            (3 + Array.length legs.gauges)
            (function
              | 0 -> Engine.queue_depth engine
              | 1 -> !in_flight
              | 2 -> !admitted
              | i -> snd legs.gauges.(i - 3) ())))
    sampler;
  Option.iter
    (fun rc -> Trace.on_record (Engine.trace engine) (Trace.record rc))
    recorder;
  let status = Engine.run ~horizon ~max_events engine in
  let end_time = Engine.now engine in
  (* --- classification: a payment commits iff every instance paid Bob --- *)
  let violations = ref [] in
  let liquidity_rejections = ref 0 in
  let partial_payments = ref 0 in
  let no_route_rejections = ref 0 in
  (* routed verdicts name the split they come from *)
  let split_tag id sep =
    if routed then Printf.sprintf "split %d%s" id sep else ""
  in
  let exposed_at ~lo ~hi lp =
    List.exists
      (fun (c : Faults.Fault_plan.crash_spec) ->
        c.pid = lp && c.at <= hi
        && match c.recover_at with None -> true | Some r -> r >= lo)
      plan.Faults.Fault_plan.crashes
  in
  (* under [optimistic] admission a deposit may meet a drained account:
     that rejection is the policy's, not a protocol fault *)
  let excused what =
    w.policy = Workload.Optimistic && is_liquidity_rejection what
  in
  let safety proto =
    Fold.safety ~excused ~preimage_is_receipt:true (judged_as proto)
  in
  let classify k =
    let p = pays.(k) in
    if p.admitted_at < 0 then begin
      if p.no_route then incr no_route_rejections;
      Rejected
    end
    else begin
      let viols = ref [] in
      let add property detail =
        viols := { payment = k; property; detail } :: !viols
      in
      let all_paid = ref true in
      let all_settled = ref true in
      let any_paid = ref false in
      List.iter
        (fun id ->
          let ins = insts.(id) in
          let h = ins.i_hops in
          let hi =
            if settled_at ins >= 0 then settled_at ins else end_time
          in
          let exposed = exposed_at ~lo:p.admitted_at ~hi in
          (* a pid abides unless its host was crashed while the instance
             was live — mirrors chaos's non-abiding registration *)
          let judge =
            {
              Fold.facts = ins.i_facts;
              honest = (fun lp -> not (exposed lp));
              net = Fold.flow ins.i_facts;
              tm_trusted = true;
              well_formed = well_formed_for p.proto ~hops:h;
            }
          in
          List.iter
            (fun (_, what) ->
              if is_liquidity_rejection what then incr liquidity_rejections)
            (Fold.rejections ins.i_facts);
          List.iter
            (fun (_, check) ->
              let { Props.Verdict.property; applicable; holds; detail } =
                check judge
              in
              if applicable && not holds then
                add property (split_tag id ": " ^ detail))
            (safety p.proto);
          if paid_at ins < 0 then all_paid := false else any_paid := true;
          (* settled for abort purposes: every customer terminated or was
             crash-covered *)
          for ci = 0 to h do
            if Fold.terminated ins.i_facts ci = None && not (exposed ci) then
              all_settled := false
          done)
        p.splits;
      if !viols <> [] then begin
        violations := !viols @ !violations;
        Violated
      end
      else if !all_paid then Committed
      else if !all_settled then begin
        if !any_paid then incr partial_payments;
        Aborted
      end
      else Stuck
    end
  in
  let outcomes = Array.init w.payments classify in
  let conservation_ok = Array.for_all book_ok legs.books in
  if not conservation_ok then
    violations :=
      {
        payment = -1;
        property = "ES/M";
        detail =
          Printf.sprintf "a shared %s book failed its conservation audit"
            legs.book_kind;
      }
      :: !violations;
  let count o =
    Array.fold_left (fun a x -> if x = o then a + 1 else a) 0 outcomes
  in
  let pay_latency k =
    List.fold_left
      (fun acc id -> max acc (paid_at insts.(id)))
      0 pays.(k).splits
    - pays.(k).arrived_at
  in
  let latencies =
    let l = ref [] in
    Array.iteri
      (fun k o -> if o = Committed then l := pay_latency k :: !l)
      outcomes;
    let a = Array.of_list !l in
    Array.sort compare a;
    a
  in
  let committed = count Committed in
  (* critical-path blame per paid instance: root = its payment's arrival
     note, sink = the deliver under which Bob's payout was released, so
     the category gaps sum exactly to the instance's commit latency. A
     message departs up to [sigma] after its send node (send-side
     compute), so the largest honest synchronous gap is [delta + sigma] —
     beyond that is GST wait. Every paid split of a routed payment keeps
     its own path, so partial outcomes stay attributable; a linear
     payment's only path counts once the payment committed. *)
  let blame_reports =
    match causal with
    | None -> []
    | Some c ->
        let acc = ref [] in
        for id = instances - 1 downto 0 do
          let k = id / max_splits in
          if
            paid_at insts.(id) >= 0
            && roots.(k) >= 0
            && paid_nodes.(id) >= 0
            && (routed || outcomes.(k) = Committed)
          then
            acc :=
              ( id,
                Obsv.Blame.attribute ~delta:(delta + sigma) c ~root:roots.(k)
                  ~sink:paid_nodes.(id) )
              :: !acc
        done;
        !acc
  in
  let blame =
    Option.map
      (fun _ -> Obsv.Blame.aggregate (List.map snd blame_reports))
      causal
  in
  let routing =
    Option.map
      (fun g ->
        let active =
          List.filter (fun ins -> ins.i_active) (Array.to_list insts)
        in
        let paid = List.filter (fun ins -> paid_at ins >= 0) active in
        {
          topology = Routing.Topology.to_string g;
          strategy = Routing.Router.strategy_name w.route;
          max_splits;
          offered_value = w.payments * w.value;
          committed_value =
            List.fold_left (fun a ins -> a + ins.i_value) 0 paid;
          paths_selected = !total_paths;
          split_payments = !split_payments;
          partial_payments = !partial_payments;
          no_route_rejections = !no_route_rejections;
          instances = List.length active;
          instances_committed = List.length paid;
          instances_settled =
            List.length (List.filter (fun ins -> settled_at ins >= 0) active);
        })
      w.topology
  in
  let report =
    {
      workload = w;
      seed;
      plan = Faults.Fault_plan.to_string plan;
      status =
        (match status with
        | Engine.Quiescent -> "quiescent"
        | Engine.Horizon_reached -> "horizon"
        | Engine.Event_limit -> "event-limit"
        | Engine.Violation_stop -> "violation-stop");
      admitted = !admitted;
      committed;
      aborted = count Aborted;
      rejected = count Rejected;
      stuck = count Stuck;
      violated = count Violated;
      violations = List.rev !violations;
      liquidity_rejections = !liquidity_rejections;
      conservation_ok;
      latency_p50 = percentile latencies 50;
      latency_p95 = percentile latencies 95;
      latency_p99 = percentile latencies 99;
      latency_max =
        (if Array.length latencies = 0 then 0
         else latencies.(Array.length latencies - 1));
      makespan = end_time;
      throughput_cpm =
        (if end_time = 0 then 0 else committed * 1_000_000 / end_time);
      messages = !messages;
      max_in_flight = !max_in_flight;
      by_protocol =
        List.map
          (fun (pr, _) ->
            let assigned = ref 0 and comm = ref 0 in
            Array.iteri
              (fun k o ->
                if protos.(k) = pr then begin
                  incr assigned;
                  if o = Committed then incr comm
                end)
              outcomes;
            (Workload.proto_name pr, !assigned, !comm))
          w.mix;
      blame;
      blame_reports;
      routing;
      committee_stats =
        Option.map
          (fun com ->
            (* deterministic: read straight off the sequencer's committee
               state, never the (domain-shared) metrics registry *)
            let certs = ref 0
            and verdicts = ref 0
            and max_batch = ref 0
            and rounds = ref 0
            and lat_sum = ref 0
            and lat_max = ref 0 in
            for slot = 0 to Quorum.Committee.slot_count com - 1 do
              match Quorum.Committee.cert_of_slot com slot with
              | None -> ()
              | Some cert ->
                  let batch = List.length cert.Consensus.Dls.d_value in
                  incr certs;
                  verdicts := !verdicts + batch;
                  if batch > !max_batch then max_batch := batch;
                  rounds := !rounds + cert.Consensus.Dls.d_round + 1;
                  let lat =
                    Option.value
                      (Quorum.Committee.cert_latency com slot)
                      ~default:0
                  in
                  lat_sum := !lat_sum + lat;
                  if lat > !lat_max then lat_max := lat
            done;
            {
              certs = !certs;
              verdicts = !verdicts;
              max_batch = !max_batch;
              rounds = !rounds;
              cert_lat_sum = !lat_sum;
              cert_lat_max = !lat_max;
            })
          !sequencer_com;
      events = Engine.events_processed engine;
      wall_ns = max 1 (Fleet.now_ns () - wall_t0);
    }
  in
  (* --- telemetry --- *)
  let reg = Obsv.Metrics.default in
  let add_count ~help ?labels name n =
    if n > 0 then
      Obsv.Metrics.add (Obsv.Metrics.counter reg ~help ?labels name) n
  in
  List.iter
    (fun (pr, _) ->
      List.iter
        (fun o ->
          add_count ~help:"Load-run payment outcomes"
            ~labels:
              [
                ("protocol", Workload.proto_name pr);
                ("outcome", outcome_name o);
              ]
            "xchain_load_payments_total"
            (Array.fold_left ( + ) 0
               (Array.mapi
                  (fun k x -> if protos.(k) = pr && x = o then 1 else 0)
                  outcomes)))
        [ Committed; Aborted; Rejected; Stuck; Violated ])
    w.mix;
  Array.iteri
    (fun k o ->
      if o = Committed then
        Obsv.Metrics.observe
          (Obsv.Metrics.histogram reg
             ~help:"Commit latency (arrival to Bob's payout), ticks"
             ~labels:[ ("protocol", Workload.proto_name protos.(k)) ]
             "xchain_load_commit_latency")
          (pay_latency k))
    outcomes;
  Obsv.Metrics.add
    (Obsv.Metrics.counter reg
       ~help:"In-protocol insufficient-funds deposit failures"
       "xchain_load_liquidity_rejections_total")
    !liquidity_rejections;
  Obsv.Metrics.set
    (Obsv.Metrics.gauge reg ~help:"Peak concurrently admitted payments"
       "xchain_load_in_flight_max")
    !max_in_flight;
  Option.iter
    (fun (s : routing_stats) ->
      add_count ~help:"Paths selected by the payment router"
        ~labels:[ ("strategy", s.strategy) ]
        "xchain_route_paths_total" s.paths_selected;
      add_count ~help:"Payments split across multiple disjoint paths"
        "xchain_route_split_payments_total" s.split_payments;
      add_count ~help:"Payments rejected because no route could carry them"
        "xchain_route_no_route_total" s.no_route_rejections;
      add_count ~help:"Value committed end-to-end across all splits"
        "xchain_route_committed_value_total" s.committed_value)
    routing;
  let spans = Obsv.Span.default in
  if Obsv.Span.capture spans then begin
    let root =
      Obsv.Span.start spans ~name:"load"
        ~attrs:
          [
            ("payments", string_of_int w.payments);
            ("seed", string_of_int seed);
          ]
        ~at:0 ()
    in
    Array.iteri
      (fun k o ->
        let p = pays.(k) in
        let s =
          Obsv.Span.start spans ~parent:root ~name:"payment"
            ~attrs:
              [
                ("id", string_of_int k);
                ("protocol", Workload.proto_name p.proto);
              ]
            ~trace_id:(if Option.is_none causal then -1 else k * max_splits)
            ~root_event:roots.(k)
            ~at:(max 0 p.arrived_at) ()
        in
        let settled_at =
          List.fold_left
            (fun acc id -> max acc (settled_at insts.(id)))
            (-1) p.splits
        in
        (* a stuck payment's span must never export as open-ended or as
           settling when the engine merely stopped: it is force-closed at
           the horizon the scheduler gave up at *)
        Obsv.Span.finish ~status:(outcome_name o)
          ~at:
            (if o = Stuck then horizon
             else if settled_at >= 0 then settled_at
             else end_time)
          s)
      outcomes;
    Obsv.Span.finish ~status:report.status ~at:end_time root
  end;
  report

(* ------------------------------- output ------------------------------- *)

let to_json r =
  let b = Buffer.create 1024 in
  let str s = Buffer.add_string b ("\"" ^ Obsv.Metrics.json_escape s ^ "\"") in
  Buffer.add_string b "{\"workload\":";
  str (Workload.to_string r.workload);
  Printf.bprintf b ",\"seed\":%d,\"plan\":" r.seed;
  str r.plan;
  Buffer.add_string b ",\"status\":";
  str r.status;
  Printf.bprintf b
    ",\"payments\":%d,\"admitted\":%d,\"committed\":%d,\"aborted\":%d,\"rejected\":%d,\"stuck\":%d,\"violated\":%d"
    r.workload.Workload.payments r.admitted r.committed r.aborted r.rejected
    r.stuck r.violated;
  Printf.bprintf b ",\"liquidity_rejections\":%d,\"conservation_ok\":%b"
    r.liquidity_rejections r.conservation_ok;
  Printf.bprintf b
    ",\"latency\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"max\":%d}" r.latency_p50
    r.latency_p95 r.latency_p99 r.latency_max;
  Printf.bprintf b
    ",\"makespan\":%d,\"throughput_cpm\":%d,\"messages\":%d,\"events\":%d,\"max_in_flight\":%d"
    r.makespan r.throughput_cpm r.messages r.events r.max_in_flight;
  Buffer.add_string b ",\"by_protocol\":[";
  List.iteri
    (fun i (name, assigned, committed) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"protocol\":\"%s\",\"assigned\":%d,\"committed\":%d}"
        name assigned committed)
    r.by_protocol;
  Buffer.add_string b "],\"violations\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"payment\":%d,\"property\":" v.payment;
      str v.property;
      Buffer.add_string b ",\"detail\":";
      str v.detail;
      Buffer.add_char b '}')
    r.violations;
  Buffer.add_char b ']';
  (* only present on causally-traced runs, so untraced reports stay
     byte-identical to earlier releases *)
  Option.iter
    (fun agg ->
      Buffer.add_string b ",\"blame\":";
      Buffer.add_string b (Obsv.Blame.agg_to_json agg))
    r.blame;
  (* only present on graph workloads, so linear reports stay byte-identical
     to earlier releases *)
  Option.iter
    (fun (s : routing_stats) ->
      Buffer.add_string b ",\"routing\":{\"topology\":";
      str s.topology;
      Buffer.add_string b ",\"strategy\":";
      str s.strategy;
      Printf.bprintf b
        ",\"max_splits\":%d,\"offered_value\":%d,\"committed_value\":%d,\"paths_selected\":%d,\"split_payments\":%d,\"partial_payments\":%d,\"no_route_rejections\":%d,\"instances\":%d,\"instances_committed\":%d,\"instances_settled\":%d}"
        s.max_splits s.offered_value s.committed_value s.paths_selected
        s.split_payments s.partial_payments s.no_route_rejections s.instances
        s.instances_committed s.instances_settled)
    r.routing;
  (* only present on shared-committee workloads, so other reports stay
     byte-identical to earlier releases *)
  Option.iter
    (fun (s : committee_stats) ->
      Printf.bprintf b
        ",\"committee\":{\"certs\":%d,\"verdicts\":%d,\"max_batch\":%d,\"rounds\":%d,\"cert_lat_sum\":%d,\"cert_lat_max\":%d}"
        s.certs s.verdicts s.max_batch s.rounds s.cert_lat_sum s.cert_lat_max)
    r.committee_stats;
  (* wall-clock timing is the one nondeterministic member; it comes last
     so byte-identity checks can strip it (scripts/strip_timing.py) *)
  Printf.bprintf b ",\"timing\":{\"wall_ns\":%d,\"events_per_sec\":%d}"
    r.wall_ns
    (int_of_float (float_of_int r.events /. (float_of_int r.wall_ns /. 1e9)));
  Buffer.add_char b '}';
  Buffer.contents b

let pp_summary ppf r =
  Fmt.pf ppf "@[<v>load: %a@," Workload.pp r.workload;
  Fmt.pf ppf "seed %d, plan %s, engine %s@," r.seed r.plan r.status;
  Fmt.pf ppf
    "payments %d: committed %d, aborted %d, rejected %d, stuck %d, violated \
     %d@,"
    r.workload.Workload.payments r.committed r.aborted r.rejected r.stuck
    r.violated;
  Fmt.pf ppf "liquidity rejections %d, conservation %s@," r.liquidity_rejections
    (if r.conservation_ok then "ok" else "BROKEN");
  Fmt.pf ppf "latency ticks p50 %d, p95 %d, p99 %d, max %d@," r.latency_p50
    r.latency_p95 r.latency_p99 r.latency_max;
  Fmt.pf ppf "makespan %d ticks, throughput %d commits/Mtick, peak in-flight %d@,"
    r.makespan r.throughput_cpm r.max_in_flight;
  Option.iter
    (fun (s : routing_stats) ->
      Fmt.pf ppf "routing %s over %s: %d paths, %d split, %d partial@,"
        s.strategy s.topology s.paths_selected s.split_payments
        s.partial_payments;
      Fmt.pf ppf
        "  value %d/%d committed, %d/%d instances paid, %d no-route@,"
        s.committed_value s.offered_value s.instances_committed s.instances
        s.no_route_rejections)
    r.routing;
  Option.iter
    (fun (s : committee_stats) ->
      Fmt.pf ppf
        "committee: %d certs, %d verdicts, max batch %d, %d rounds, cert \
         latency mean %d max %d@,"
        s.certs s.verdicts s.max_batch s.rounds
        (if s.certs = 0 then 0 else s.cert_lat_sum / s.certs)
        s.cert_lat_max)
    r.committee_stats;
  List.iter
    (fun (name, assigned, committed) ->
      Fmt.pf ppf "  %-10s %d assigned, %d committed@," name assigned committed)
    r.by_protocol;
  List.iter
    (fun v ->
      Fmt.pf ppf "  VIOLATION pay=%d %s: %s@," v.payment v.property v.detail)
    r.violations;
  Fmt.pf ppf "@]"
