open Sim
open Protocols
module Fold = Props.Payment_fold

type outcome = Tally.outcome = Committed | Aborted | Rejected | Stuck | Violated

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
  instances_committed : int;
  instances_settled : int;
}

type committee_stats = Quorum.Committee.stats = {
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
  cost : Fleet.cost;
}

(* Every payment of a load run is timed as a single payment is by default
   (δ, σ, margin), at the workload's drift: its parameters are Runner's
   own, derived once per timing and shared. *)
let { Runner.delta; sigma; _ } = Runner.default_config ~hops:1 ~seed:0

let derive (w : Workload.t) protocol ~hops =
  Runner.derive_params
    { (Runner.default_config ~hops ~seed:0) with drift_ppm = w.drift_ppm }
    protocol

(* A shared payment runs the weak protocol against the run's committee,
   with no TM process of its own: its block is its 2h+1 participants
   whichever committee that is. *)
let shared_committee pids verify =
  Runner.Weak
    { Weak_protocol.default_config with tm = Weak_protocol.Shared { pids; verify } }

let no_committee = shared_committee [||] (fun _ -> false)

(* The runner protocol a block of [proto] runs, [shared] the run's
   shared-committee protocol *)
let runs shared = function Workload.Shared -> shared | p -> Proto.runner p
let block_size ~hops proto = Runner.process_count ~hops (runs no_committee proto)

(* the pid stride must fit the longest path any payment can take *)
let hosts (w : Workload.t) =
  let lmax =
    match w.topology with None -> w.hops | Some g -> g.Routing.Topology.nodes - 1
  in
  List.fold_left (fun acc (p, _) -> max acc (block_size ~hops:lmax p)) 0 w.mix

type slot_view = {
  state : string;
  finished : bool;
  clocks_set : string list;
  datas_set : string list;
  pending : int;
}

(* The protocol side of a block: executor states for the slots its
   template covers, run for the instance [inst env id], and past the
   template the hand-written handlers [extra] builds for an instance. A
   block keeps states, not handler closures: its shell calls the
   executor on them. *)
type slots =
  | Slots : {
      runs : ('i, Msg.t, Obs.t) Anta.Executor.running array;
      extra : (Msg.t, Obs.t) Engine.handlers array;
      inst : Env.t -> int -> 'i;
      build_extra : 'i -> int -> (Msg.t, Obs.t) Engine.handlers;
    }
      -> slots

let slot_count (Slots s) = Array.length s.runs + Array.length s.extra

(* Book.pp_error Insufficient_funds, wrapped by the escrows' "deposit: "
   prefix; Unknown_account prints "deposit: unknown account …" and so
   stays a real violation. *)
let is_liquidity_rejection = String.starts_with ~prefix:"deposit: account"

(* [k] of a controller timer label "<kind>#<k>" whose digits start at
   [from], read in place *)
let label_index label from =
  let k = ref 0 in
  for i = from to String.length label - 1 do
    k := (10 * !k) + Char.code label.[i] - Char.code '0'
  done;
  !k

(* The first edge from [e] on whose [funder] balance is negative, or -1. *)
let rec first_overdrawn books funder e =
  if e = Array.length books then -1
  else if Ledger.Book.balance books.(e) funder < 0 then e
  else first_overdrawn books funder (e + 1)

(* Int-keyed tables for the live instances and payments. *)
module Ids = Int_table

(* What every instance of one protocol over one path length shares: the
   chain's topology, its derived parameters, the protocol's compiled
   template and its structural well-formedness, which the judge reads
   for each instance. [instantiate env id] gives the slots of a new block
   for instance [id] whose payment data is [env]. [free] holds up to
   [free_cap] retired blocks of this shape (see [take_free]). *)
type shape = {
  topo : Topology.t;
  params : Params.t;
  template : Runner.template;
  instantiate : Env.t -> int -> slots;
  well_formed : (unit, string) result;
  mutable free : block list;
}

(* One protocol instance: a single path of a payment, running the plain
   linear protocol over the books of that path's legs. A payment on a
   linear chain owns exactly one instance (id = payment index); a routed
   payment owns up to [splits] (ids [k * splits + j]). An instance is built
   when its payment is admitted and retired once nothing can make its
   processes act again (see [try_retire]). What it owns alone is here;
   the parts every instance of its shape has are its [block]. *)
and inst = {
  id : int;
  i_pay : pay;
  i_split : int;  (** index among its payment's splits *)
  i_hops : int;
  i_shape : shape;
  i_value : int;
  i_path : int array;  (** book indices along the path *)
  i_amounts : int array;  (** leg amounts, commissions included *)
  i_draws : int array;
      (** per block slot [l], at [3 * l]: the process clock's rate and
          offset as {!Clock.draw} stores them, then the start skew. The
          clock is anchored at the start skew, so the offset is drawn,
          keeping the stream, but not read *)
  i_blk : block;
  mutable i_done : bool;  (** settlement counted toward the payment *)
  mutable i_released : bool;  (** unspent collateral handed back *)
  mutable i_asks : int;
      (** requests in flight to a shared committee's sequencer *)
}

(* An instance's processes and the state they run on, which outlive it:
   once every process record of a retired instance has left the engine,
   the next admission of the same shape resets the block in place and
   runs its own instance on it (see [build]). *)
and block = {
  b_env : Env.t;  (** the payment data, rewritten by {!Env.reuse} *)
  b_slots : slots;  (** the state of each block slot the protocol uses *)
  b_phase : Bytes.t;
      (** per block slot: waiting for Start, running, or halted and
          reported to the controller (see [shell]) *)
  b_buffered : (int * Msg.t) list array;
      (** per block slot: deliveries before its Start, newest first *)
  b_facts : Fold.t;  (** the instance's property fold *)
  b_deposited : int array;  (** per leg: deposits drawn from the payer *)
  b_refunded : int array;  (** per leg: refunds returned to the payer *)
  b_deposits : int list array;  (** per leg: deposit ids in its book *)
  mutable b_procs : (Msg.t, Obs.t) Engine.ctx array;
      (** the slots' engine records, once registered *)
  mutable b_shell : (Msg.t, Obs.t) Engine.handlers;  (** every slot's *)
  mutable b_ins : inst;  (** the instance the block runs *)
}

(* A payment from its arrival until its outcome is counted. Its verdict
   accumulates as its instances are judged, one at a time. *)
and pay = {
  k : int;
  proto : Workload.proto;
  arrived_at : int;
  mutable draws : int array array;
      (** per split, the [i_draws] of its instance; dropped once the
          payment's instances are built *)
  mutable admitted_at : int;
  mutable closed : bool;  (** scheduler stopped tracking it *)
  mutable splits : int list;  (** instance ids, ascending *)
  mutable no_route : bool;
  mutable settled : int;  (** instances whose settlement was reported *)
  mutable unjudged : int;  (** instances not judged yet *)
  mutable split_viols : violation list array;  (** per split, in order *)
  mutable all_paid : bool;
  mutable all_settled : bool;
  mutable any_paid : bool;
  mutable paid_max : int;  (** latest payout over the splits *)
  mutable settled_max : int;  (** latest settlement over the splits *)
}

let facts ins = ins.i_blk.b_facts
let paid_at ins = Fold.paid_at (facts ins)  (* first release to Bob *)
let settled_at ins = Fold.settled_at (facts ins)  (* every customer done *)

(* Where an admitted payment's legs and their liquidity come from: the one
   decision that differs between a linear chain and a payment graph. *)
type legs = {
  lmax : int;  (** the longest path a payment can take *)
  books : Ledger.Book.t array;  (** the shared books, one per hop or edge *)
  book_kind : string;
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
          Array.iteri
            (fun i d -> if d = 0 then unreserve i)
            ins.i_blk.b_deposited);
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
    route =
      (fun () ->
        Result.to_option
          (RR.attempt router ~avail ~value:w.value ~max_splits:w.splits));
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
        let b = ins.i_blk in
        Array.iteri
          (fun i e ->
            let back =
              ins.i_amounts.(i) - b.b_deposited.(i) + b.b_refunded.(i)
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
            let e = first_overdrawn books funder 0 in
            if e < 0 then None
            else
              Some
                (Printf.sprintf "edge %d overdrew its liquidity by %d" e
                   (-avail e)) );
      ];
    (* the path, hence the role layout, is unknown until admission *)
    role = (fun _ l -> if l = 0 then "alice" else "node");
  }

(* ------------------------------- state -------------------------------- *)

(* One load run: what it derives from its inputs, its engine, the live
   payments and instances, the draws cursor, the per-payment rows kept
   for blame and spans, and the counters its report reads. The phases
   below are functions over it; {!run} sets it up and composes them. *)
type state = {
  w : Workload.t;
  seed : int;
  plan : Faults.Fault_plan.t;
  causal : Obsv.Causal.t option;
  legs : legs;
  stride : int;  (** pids per instance block *)
  payment_limit : int;  (** the first pid past the instance blocks *)
  stuck_eff : int;  (** ticks from admission to the stuck deadline *)
  horizon : int;
  network : Network.t;
  engine : (Msg.t, Obs.t) Engine.t;
  dag : (Msg.t, Obs.t) Causal_fold.t option;
  live : inst Ids.t;  (** instances that can still act *)
  pays : pay Ids.t;  (** payments from arrival until counted *)
  queue : int Queue.t;  (** payments waiting for admission *)
  shapes : (Workload.proto * int, shape) Hashtbl.t;
      (** per (protocol, path length), built at the first admission that
          needs it: the table lives and dies with its run, so concurrent
          runs share nothing *)
  mutable shared : Runner.protocol;
      (** the weak protocol whose TM is the shared committee, once
          [add_committee] builds it *)
  mutable sequencer : Quorum.Committee.t option;
  clock_rng : Rng.t;
  mutable mix : Workload.proto Seq.t;  (** the protocols not drawn yet *)
  mutable drawn : int;  (** payments whose draws were taken *)
  ahead : (Workload.proto * int array array) Ids.t;
      (** draws set aside for payments that arrive out of order *)
  rows : bool;  (** per-payment rows are kept: for blame or spans *)
  roots : int array;  (** per payment: its arrival note *)
  paid_nodes : int array;  (** per instance: the node that paid Bob *)
  row_outcome : outcome array;
  row_arrived : int array;
  row_ended : int array;
      (** per payment: when its span ends, at its last settlement, or at
          its close for a rejected one; -1 if never *)
  tallies : (Workload.proto * Tally.t) list;  (** one per mix entry *)
  safety :
    (Workload.proto * (string * (Fold.judge -> Props.Verdict.t)) list) list;
      (** per mix entry, its Definition's safety checks, built once: keyed
          by the protocol, not its [Runner.t], which can hold a closure *)
  mutable violations : (int * violation list) list;
  mutable messages : int;
  mutable liquidity_rejections : int;
  mutable admitted : int;
  mutable in_flight : int;
  mutable max_in_flight : int;
  mutable total_paths : int;
  mutable split_payments : int;
  mutable partial_payments : int;
  mutable no_route_rejections : int;
  mutable inst_paid : int;
  mutable inst_settled : int;
  mutable committed_value : int;
}

(* A protocol's settle horizon, for the derived stuck deadline. *)
let proto_horizon w lmax proto =
  match Proto.runner proto with
  | (Runner.Sync_timebound | Runner.Naive_universal) as p ->
      (derive w p ~hops:lmax).Params.horizon
  | Runner.Htlc -> Htlc_protocol.window_of (derive w Runner.Htlc ~hops:lmax) 0
  | Runner.Weak c -> c.patience
  | Runner.Atomic c -> c.deadline

let event_budget (w : Workload.t) =
  let instances = w.payments * w.splits in
  (1000 * instances) + 100_000
  (* committee consensus traffic is quadratic in committee size per
     certified slot; give it headroom without touching the budget of
     committee-less runs *)
  + (match w.committee with
    | Some c ->
        let slots = (instances + c.c_batch - 1) / c.c_batch in
        (slots + (4 * c.c_pipeline)) * 4 * c.c_size * c.c_size
    | None -> 0)

(* Everything a run derives from its inputs before its engine starts: the
   legs, the deadlines, the network under the fault plan, the engine and
   its graph, and empty tables and counters. *)
let create ~plan ~causal ~prof ~monitor ~sampler ~(w : Workload.t) ~seed =
  let legs =
    match w.topology with None -> chain_legs w | Some g -> graph_legs w g
  in
  let stride = hosts w in
  let instances = w.payments * w.splits in
  let gst_slack = match w.gst with Some g -> 2 * g | None -> 0 in
  let stuck_eff =
    if w.stuck_after > 0 then w.stuck_after
    else
      let base =
        List.fold_left
          (fun acc (p, _) -> max acc (proto_horizon w legs.lmax p))
          0 w.mix
      in
      (* ×4 absorbs clock drift and queueing inside the protocol windows *)
      (4 * base) + (20 * delta) + gst_slack
  in
  let horizon =
    let last_arrival =
      match Workload.arrival_seq w ~seed with
      | Some arr -> Seq.fold_left (fun _ t -> t) 0 arr
      | None -> (
          match w.arrival with
          | Workload.Closed { clients; think } ->
              let rounds = (w.payments + clients - 1) / clients in
              rounds * (w.patience + stuck_eff + think + 1)
          | _ -> 0)
    in
    last_arrival + w.patience + (2 * stuck_eff) + (20 * delta) + gst_slack
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
    Engine.create ~tag_of:Msg.tag ~network ~sigma ~trace_capacity:0 ?prof
      ?monitor ?sampler ~seed ()
  in
  let dag = Option.map (Causal_fold.attach engine) causal in
  (* Per-payment and per-instance rows, kept only when a consumer needs
     them after the run: causal blame (arrival roots, payout sinks,
     outcomes) and payment spans (arrival, settlement, outcome). *)
  let rows = Option.is_some causal || Obsv.Span.capture Obsv.Span.default in
  let row n v = if rows then Array.make n v else [||] in
  {
    w; seed; plan; causal; legs; stride; payment_limit; stuck_eff; horizon;
    network; engine; dag;
    live = Ids.create 256;
    pays = Ids.create 256;
    queue = Queue.create ();
    shapes = Hashtbl.create 8;
    shared = no_committee;
    sequencer = None;
    clock_rng = Rng.create ~seed:(seed + 31);
    mix = Workload.mix_seq w ~seed;
    drawn = 0;
    ahead = Ids.create 16;
    rows;
    roots = row w.payments (-1);
    paid_nodes =
      (if Option.is_some causal then Array.make instances (-1) else [||]);
    row_outcome = row w.payments Rejected;
    row_arrived = row w.payments (-1);
    row_ended = row w.payments (-1);
    tallies = List.map (fun (p, _) -> (p, Tally.create ())) w.mix;
    safety =
      (let excused =
         (* under [optimistic] admission a deposit may meet a drained
            account: that rejection is the policy's, not a protocol fault *)
         if w.policy = Workload.Optimistic then is_liquidity_rejection
         else fun _ -> false
       in
       List.map
         (fun (p, _) ->
           (p, Fold.safety ~excused ~preimage_is_receipt:true (Proto.runner p)))
         w.mix);
    violations = [];
    messages = 0; liquidity_rejections = 0; admitted = 0; in_flight = 0;
    max_in_flight = 0; total_paths = 0; split_payments = 0;
    partial_payments = 0; no_route_rejections = 0; inst_paid = 0;
    inst_settled = 0; committed_value = 0;
  }

let tally_of st proto = List.assoc proto st.tallies

(* The scheduler's own points in the graph, on its pid 0. The label is
   built only when a graph is attached to read it. *)
let note st ?after ~trace kind n =
  match st.dag with
  | None -> -1
  | Some f ->
      Causal_fold.note f ~pid:0 ?after ~trace ~label:(kind ^ string_of_int n) ()

(* each live instance's entries feed its fold; the legs' liquidity
   accounting rides on the same deposits and refunds *)
let observed st ins entry obs =
  let unpaid = paid_at ins < 0 in
  Fold.observe (facts ins) entry;
  (match st.dag with
  | Some f when unpaid && paid_at ins >= 0 ->
      st.paid_nodes.(ins.id) <- Causal_fold.current_node f
  | _ -> ());
  (* depositor index IS the leg index: customer i deposits only at
     escrow i, at most once *)
  let b = ins.i_blk in
  match obs with
  | Obs.Deposited { depositor; amount; deposit; _ }
    when depositor >= 0 && depositor < ins.i_hops ->
      if b.b_deposited.(depositor) = 0 then st.legs.on_deposit ins depositor;
      b.b_deposited.(depositor) <- b.b_deposited.(depositor) + amount;
      b.b_deposits.(depositor) <- deposit :: b.b_deposits.(depositor)
  | Obs.Refunded { depositor; amount; _ }
    when depositor >= 0 && depositor < ins.i_hops ->
      b.b_refunded.(depositor) <- b.b_refunded.(depositor) + amount
  | _ -> ()

let in_blocks st pid = pid >= 1 && pid < st.payment_limit

(* The [n] slots of a block over [template], for instance [id] whose
   payment data is [env]; an HTLC instance draws from [seed + 57 + id]. *)
let templated ~seed (Runner.Template t) n =
  let inst env id = t.instance env ~seed:(seed + 57 + id) in
  let k = min n (Array.length t.automata) in
  fun env id ->
    let i = inst env id in
    Slots
      {
        runs = Array.init k (fun l -> Anta.Executor.make t.automata.(l) i);
        extra = Array.init (n - k) (fun l -> t.extra i (k + l));
        inst;
        build_extra = t.extra;
      }

(* Point the slots at the block's env, rewritten in place, as instance
   [id]'s: executor states are reset, extra handlers built anew. *)
let re_aim (Slots s) env id =
  let i = s.inst env id in
  let k = Array.length s.runs in
  for l = 0 to k - 1 do
    Anta.Executor.reset s.runs.(l) i
  done;
  for l = 0 to Array.length s.extra - 1 do
    s.extra.(l) <- s.build_extra i (k + l)
  done

let slot_views (Slots s) =
  Array.map
    (fun r ->
      let store = Anta.Executor.store r in
      {
        state = Anta.Executor.current_state r;
        finished = Anta.Executor.terminated r;
        clocks_set = Anta.Store.clock_vars store;
        datas_set = Anta.Store.data_vars store;
        pending = Anta.Executor.pending_count r;
      })
    s.runs

(* Slot [l]'s handlers, run on behalf of the shell *)
let slot_start (Slots s) l ctx =
  if l < Array.length s.runs then Anta.Executor.on_start s.runs.(l) ctx
  else s.extra.(l - Array.length s.runs).Engine.on_start ctx

let slot_receive (Slots s) l ctx ~src msg =
  if l < Array.length s.runs then
    Anta.Executor.on_receive s.runs.(l) ctx ~src msg
  else s.extra.(l - Array.length s.runs).Engine.on_receive ctx ~src msg

let slot_timer (Slots s) l ctx ~label =
  if l < Array.length s.runs then Anta.Executor.on_timer s.runs.(l) ctx ~label
  else s.extra.(l - Array.length s.runs).Engine.on_timer ctx ~label

let shape_of st proto h =
  match Hashtbl.find st.shapes (proto, h) with
  | sh -> sh
  | exception Not_found ->
      let protocol = runs st.shared proto in
      let params = derive st.w protocol ~hops:h in
      let template = Runner.template protocol params in
      let sh =
        {
          topo = Topology.create ~hops:h;
          params;
          template;
          instantiate =
            templated ~seed:st.seed template
              (Runner.process_count ~hops:h protocol);
          well_formed = Runner.well_formed protocol ~hops:h;
          free = [];
        }
      in
      Hashtbl.replace st.shapes (proto, h) sh;
      sh

(* --- payment arrival draws ---

   Payments draw their protocol from the mix stream, and every block slot
   of every split its process clock and start skew from one clock
   stream, both in payment order and whether or not the payment is ever
   admitted, exactly as if every block were registered before the run.
   A payment takes its draws when it arrives; one that arrives out of
   order (closed-loop arrivals) finds them set aside by the payments
   that drew past it. *)
let draw_payment st =
  match st.mix () with
  | Seq.Nil -> assert false
  | Seq.Cons (proto, rest) ->
      st.mix <- rest;
      st.drawn <- st.drawn + 1;
      Tally.assign (tally_of st proto);
      ( proto,
        Array.init st.w.splits (fun _ ->
            let draws = Array.make (3 * st.stride) 0 in
            for l = 0 to st.stride - 1 do
              Clock.draw st.clock_rng ~drift_ppm:st.w.drift_ppm draws (3 * l);
              draws.((3 * l) + 2) <- Rng.int st.clock_rng 1001
            done;
            draws) )

let take_draws st k =
  if k < st.drawn then begin
    let d = Ids.find st.ahead k in
    Ids.remove st.ahead k;
    d
  end
  else begin
    while st.drawn < k do
      let skipped = st.drawn in
      Ids.replace st.ahead skipped (draw_payment st)
    done;
    draw_payment st
  end

(* --- judging: an instance's verdict is final once it is retired (its
   processes never act again) or the run has ended --- *)

(* A local pid abides unless its host was crashed while its instance was
   live, from [lo] to [hi] — mirrors chaos's non-abiding registration. *)
let rec exposed crashes ~lo ~hi lp =
  match crashes with
  | [] -> false
  | (c : Faults.Fault_plan.crash_spec) :: rest ->
      (c.pid = lp && c.at <= hi
      && match c.recover_at with None -> true | Some r -> r >= lo)
      || exposed rest ~lo ~hi lp

let always_honest _ = true

let rec count_liquidity n = function
  | [] -> n
  | (_, what) :: rest ->
      count_liquidity (if is_liquidity_rejection what then n + 1 else n) rest

(* The violated ones among [checks], in order; [] while all hold, which
   allocates nothing. *)
let rec violated st ins facts = function
  | [] -> []
  | (_, check) :: rest ->
      let { Props.Verdict.property; applicable; holds; detail } =
        check facts
      in
      if holds || not applicable then violated st ins facts rest
      else
        (* routed verdicts name the split they come from *)
        let detail =
          if Option.is_none st.w.topology then detail
          else Printf.sprintf "split %d: %s" ins.id detail
        in
        { payment = ins.i_pay.k; property; detail }
        :: violated st ins facts rest

let judge st ins ~end_time =
  let p = ins.i_pay in
  let h = ins.i_hops in
  let hi = if settled_at ins >= 0 then settled_at ins else end_time in
  let crashes = st.plan.Faults.Fault_plan.crashes in
  let lo = p.admitted_at in
  let f = facts ins in
  let judge =
    {
      Fold.facts = f;
      honest =
        (match crashes with
        | [] -> always_honest
        | _ -> fun lp -> not (exposed crashes ~lo ~hi lp));
      net = Fold.flow f;
      tm_trusted = true;
      well_formed = ins.i_shape.well_formed;
    }
  in
  st.liquidity_rejections <-
    count_liquidity st.liquidity_rejections (Fold.rejections f);
  p.split_viols.(ins.i_split) <-
    violated st ins judge (List.assoc p.proto st.safety);
  if paid_at ins < 0 then p.all_paid <- false
  else begin
    p.any_paid <- true;
    p.paid_max <- max p.paid_max (paid_at ins);
    st.inst_paid <- st.inst_paid + 1;
    st.committed_value <- st.committed_value + ins.i_value
  end;
  if settled_at ins >= 0 then st.inst_settled <- st.inst_settled + 1;
  p.settled_max <- max p.settled_max (settled_at ins);
  (* settled for abort purposes: every customer terminated or was
     crash-covered *)
  for ci = 0 to h do
    if
      Option.is_none (Fold.terminated f ci)
      && not (exposed crashes ~lo ~hi ci)
    then p.all_settled <- false
  done;
  p.unjudged <- p.unjudged - 1

(* a payment commits iff every instance paid Bob; its outcome folds into
   its protocol's tally *)
let finalize st p =
  Ids.remove st.pays p.k;
  let o =
    if p.admitted_at < 0 then begin
      if p.no_route then st.no_route_rejections <- st.no_route_rejections + 1;
      Rejected
    end
    else
      let viols = List.concat (Array.to_list p.split_viols) in
      if viols <> [] then begin
        st.violations <- (p.k, viols) :: st.violations;
        Violated
      end
      else if p.all_paid then Committed
      else if p.all_settled then begin
        if p.any_paid then st.partial_payments <- st.partial_payments + 1;
        Aborted
      end
      else Stuck
  in
  let t = tally_of st p.proto in
  if o = Committed then
    Tally.commit t ~payment:p.k ~latency:(p.paid_max - p.arrived_at)
  else Tally.add t o;
  if st.rows then begin
    st.row_outcome.(p.k) <- o;
    (* a rejected payment is finalized as it closes, at its patience
       deadline *)
    st.row_ended.(p.k) <-
      (if o = Rejected then Engine.now st.engine else p.settled_max)
  end

(* --- retire ---

   Once an instance's settlement is counted, its payment is closed (so
   its leftover collateral was handed back) and every process of its
   block is quiet (halted, or nothing queued for it and no timer armed;
   deliveries to halted pids do not count), nothing can
   make its processes act again: only its own block, the controller (at
   admission) and a shared committee ever send to it (for the committee,
   see [try_retire]). It is judged, its processes leave the engine, its
   links leave the network's FIFO table and its resolved deposits leave
   the books. Unsettled (stuck) instances, and instances whose block goes
   quiet without another event to notice it (a crashed pid's deliveries
   are dropped unseen), stay until the run ends. *)
let forget_link st a b =
  Network.forget_link st.network ~src:a ~dst:b;
  Network.forget_link st.network ~src:b ~dst:a

(* The most retired blocks a shape keeps for reuse. Enough to take up the
   swings of the payments in flight, which is where reuse saves; a block
   kept beyond them serves only a rare peak, and is live memory the
   major heap grows by several times over meanwhile. On the committee
   spec at 600 and 6,000 payments (seeds 1-4), keeping every retired
   block raised the larger run's peak heap to 1.52-1.62 times the
   smaller's, against 1.28-1.38 without reuse; with 16 it reads
   1.31-1.48, and words promoted per payment rise from 656 to 743 (817
   without reuse), at 20,000 payments of the chain spec from 194 to
   205. *)
let free_cap = 16

let retire st ins =
  Ids.remove st.live ins.id;
  let base = 1 + (ins.id * st.stride) in
  let n = Array.length ins.i_blk.b_procs in
  for a = 0 to n - 1 do
    Engine.retire st.engine (base + a);
    (* its links: with the controller, with a shared committee's
       sequencer (the only replica that talks to blocks), and within the
       block *)
    forget_link st 0 (base + a);
    if Option.is_some st.w.committee then
      forget_link st st.payment_limit (base + a);
    for b = a to n - 1 do
      forget_link st (base + a) (base + b)
    done
  done;
  Array.iteri
    (fun leg ids ->
      List.iter (Ledger.Book.forget st.legs.books.(ins.i_path.(leg))) ids)
    ins.i_blk.b_deposits;
  judge st ins ~end_time:(Engine.now st.engine);
  (* the block waits there for the engine to drop its records, unless
     enough already wait (see [free_cap]) *)
  if List.compare_length_with ins.i_shape.free free_cap < 0 then
    ins.i_shape.free <- ins.i_blk :: ins.i_shape.free;
  let p = ins.i_pay in
  if p.closed && p.unjudged = 0 then finalize st p

let block_quiet st ins =
  let base = 1 + (ins.id * st.stride) in
  let rec quiet l =
    l = Array.length ins.i_blk.b_procs
    || (Engine.quiet st.engine (base + l) && quiet (l + 1))
  in
  quiet 0

let retirable st ins = ins.i_done && ins.i_pay.closed && block_quiet st ins

(* the instances sharing a shared-committee instance's certificate *)
let batch_of st ins =
  Option.bind st.sequencer (fun com ->
      Option.map
        (fun (d : Quorum.Committee.decision) ->
          List.filter_map
            (fun (v : Quorum.Committee.verdict) -> Ids.find_opt st.live v.item)
            d.cert.Consensus.Dls.d_value)
        (Quorum.Committee.decision_of com ~item:ins.id))

(* A shared-committee instance waits for its whole batch: the sequencer
   re-announces a certificate to every item of its batch whenever one
   item's late request arrives. Once no instance of the batch can ask
   again (each is quiet, with no request in flight), nothing will send to
   any of them, and the retirable ones go together; the sequencer then
   forgets their items. *)
let try_retire st ins =
  if Ids.mem st.live ins.id && retirable st ins then
    if ins.i_pay.proto <> Workload.Shared then retire st ins
    else
      match (batch_of st ins, st.sequencer) with
      | Some batch, Some com
        when List.for_all (fun x -> x.i_asks = 0 && block_quiet st x) batch ->
          List.iter
            (fun x ->
              if Ids.mem st.live x.id && retirable st x then begin
                retire st x;
                Quorum.Committee.forget com ~item:x.id
              end)
            batch
      | _ -> ()

(* The accounting hook: each live instance's entries feed its fold.
   Requests to a shared committee's sequencer are counted while in
   flight. A delivery to a halted pid runs no handler, so it is where a
   done instance's last event may land: check retirement there too. *)
let on_trace st entry =
  match entry with
  | Trace.Sent { src; dst; _ } ->
      st.messages <- st.messages + 1;
      if in_blocks st src then begin
        match Ids.find st.live ((src - 1) / st.stride) with
        | ins ->
            Fold.observe (facts ins) entry;
            if dst = st.payment_limit then ins.i_asks <- ins.i_asks + 1
        | exception Not_found -> ()
      end
  | Trace.Observed { pid; obs; _ } ->
      if in_blocks st pid then begin
        match Ids.find st.live ((pid - 1) / st.stride) with
        | ins -> observed st ins entry obs
        | exception Not_found -> ()
      end
  | Trace.Delivered { src; dst; _ } ->
      if dst = st.payment_limit then begin
        if in_blocks st src then
          match Ids.find st.live ((src - 1) / st.stride) with
          | ins -> ins.i_asks <- ins.i_asks - 1
          | exception Not_found -> ()
      end
      else if in_blocks st dst then begin
        match Ids.find st.live ((dst - 1) / st.stride) with
        | ins ->
            if ins.i_done && Engine.is_halted st.engine dst then
              try_retire st ins
        | exception Not_found -> ()
      end
  | _ -> ()

(* --- build ---

   Every process is a buffering shell that comes alive on Start, running
   its slot of the instance's handlers. One shell serves every slot of an
   instance: the slot is its pid within the block ({!Engine.pid} counts
   from the block's base), and its phase and early deliveries are fields
   of the instance. *)
let waiting = '\000'
let running = '\001'
let reported = '\002'

let after_inner st ins l ctx =
  let phase = ins.i_blk.b_phase in
  if l <= ins.i_hops && Bytes.get phase l = running && Engine.halted ctx
  then begin
    Bytes.set phase l reported;
    Engine.send_absolute ctx ~dst:0 (Msg.Traffic_done { payment = ins.id })
  end;
  if ins.i_done then try_retire st ins

let start st ins l ctx =
  let b = ins.i_blk in
  Bytes.set b.b_phase l running;
  (* re-anchor the local epoch: the protocol's absolute local deadlines
     must count from this instance's own start, not from engine time 0 *)
  Engine.set_clock st.engine
    ~pid:(1 + (ins.id * st.stride) + l)
    (Clock.of_draw ins.i_draws (3 * l)
       ~l0:ins.i_draws.((3 * l) + 2)
       ~g0:(Engine.now st.engine));
  slot_start b.b_slots l ctx;
  let pending = List.rev b.b_buffered.(l) in
  b.b_buffered.(l) <- [];
  List.iter
    (fun (src, m) ->
      if not (Engine.halted ctx) then slot_receive b.b_slots l ctx ~src m)
    pending;
  after_inner st ins l ctx

(* The one shell of a block, whichever instance it runs: it reads the
   instance, and the slot's phase and early deliveries, off the block at
   every event. *)
let shell st b =
  {
    Engine.on_start = (fun _ -> ());
    on_receive =
      (fun ctx ~src msg ->
        let ins = b.b_ins and l = Engine.pid ctx in
        let phase = Bytes.get b.b_phase l in
        match msg with
        | Msg.Start -> if phase = waiting then start st ins l ctx
        | _ ->
            if phase <> waiting then begin
              slot_receive b.b_slots l ctx ~src msg;
              after_inner st ins l ctx
            end
            else b.b_buffered.(l) <- (src, msg) :: b.b_buffered.(l));
    on_timer =
      (fun ctx ~label ->
        let ins = b.b_ins and l = Engine.pid ctx in
        if Bytes.get b.b_phase l <> waiting then begin
          slot_timer b.b_slots l ctx ~label;
          after_inner st ins l ctx
        end);
  }

(* A block is free for another instance once the engine has dropped
   every process record of its last one. *)
let block_spent b = Array.for_all Engine.spent b.b_procs

(* A free block of [sh], taken off its list, or [None] when every block
   there still has a record in the engine. A retired block is listed
   first and usually spent by the next admission of its shape; one whose
   halted processes still have deliveries on the way waits. *)
let take_free sh =
  match sh.free with
  | b :: rest when block_spent b ->
      sh.free <- rest;
      Some b
  | free -> (
      match List.find_opt block_spent free with
      | None -> None
      | Some b as found ->
          sh.free <- List.filter (fun x -> x != b) free;
          found)

(* Build split [j] of an admitted payment over path [s]. The shape of its
   protocol and path length is shared; the instance owns its env (keys,
   amounts, book slice, payment id), the executor state of each slot, its
   fold and one shell, with a process per slot its protocol uses, born at
   the pids [1 + id * stride + l]. A process reads its clock only once it
   has started, so it gets the clock drawn for it at its Start. Building
   every instance before the run instead measured slower end to end on
   the 2k-payment chain benchmark (seed 1, 10 alternating pairs, two-core
   x86-64 VM): at admission, with retirement, commits 9% more payments
   per second in a 2.6x smaller peak heap. Instances of the templated
   protocols compile nothing here, they instantiate their shape's
   template: for sync, on the same benchmark that took the controller
   (pid 0, which runs [build]) from 456 to 249 minor words per event and
   the run from 4,091 to 2,832 words per payment.

   All of that but the instance's own record is its block, which
   outlives it: a retired block whose process records the engine has
   dropped is reset in place for the next instance of its shape
   ({!Env.reuse}, the slots' [re_aim], {!Props.Payment_fold.reset},
   {!Engine.reborn}), and a new one is built only when no such block
   exists. On the same benchmark 1,857 of the 2,000 admissions reuse a
   block: building falls from about 620 to about 220 minor words per
   payment, the run from 1,982 to 1,513, and at 20,000 payments the
   words promoted per payment fall from 592 to 204. *)
let build st p j (s : Routing.Router.split) =
  let id = (p.k * st.w.splits) + j in
  let path = Array.of_list s.path in
  let h = Array.length path in
  let shape = shape_of st p.proto h in
  let amounts = st.legs.amounts s.path s.value in
  let base = 1 + (id * st.stride) in
  let seed = st.seed + 101 + id in
  let books = Array.map (fun e -> st.legs.books.(e)) path in
  match take_free shape with
  | Some b ->
      let env = b.b_env in
      Env.reuse env ~payment:id ~value:s.value ~amounts ~seed ~books;
      re_aim b.b_slots env id;
      Bytes.fill b.b_phase 0 (Bytes.length b.b_phase) waiting;
      Array.fill b.b_buffered 0 (Array.length b.b_buffered) [];
      Fold.reset b.b_facts ~base;
      Array.fill b.b_deposited 0 h 0;
      Array.fill b.b_refunded 0 h 0;
      Array.fill b.b_deposits 0 h [];
      let ins =
        {
          b.b_ins with
          id;
          i_pay = p;
          i_split = j;
          i_value = s.value;
          i_path = path;
          i_amounts = amounts;
          i_draws = p.draws.(j);
          i_done = false;
          i_released = false;
          i_asks = 0;
        }
      in
      b.b_ins <- ins;
      Ids.replace st.live id ins;
      Array.iteri
        (fun l r ->
          Engine.reborn st.engine r ~pid:(base + l) ~base
            ~label:(st.legs.role p.proto l) b.b_shell)
        b.b_procs;
      ins
  | None ->
      let env =
        Env.make ~topo:shape.topo ~params:shape.params ~payment:id
          ~value:s.value ~amounts ~seed ~books ()
      in
      let slots = shape.instantiate env id in
      let n = slot_count slots in
      let phase = Bytes.make n waiting and buffered = Array.make n [] in
      let facts = Fold.create ~base ~hops:h ~nprocs:(h + 1) in
      let deposited = Array.make h 0 and refunded = Array.make h 0 in
      let deposits = Array.make h [] in
      let rec ins =
        {
          id;
          i_pay = p;
          i_split = j;
          i_hops = h;
          i_shape = shape;
          i_value = s.value;
          i_path = path;
          i_amounts = amounts;
          i_draws = p.draws.(j);
          i_blk = b;
          i_done = false;
          i_released = false;
          i_asks = 0;
        }
      and b =
        {
          b_env = env;
          b_slots = slots;
          b_phase = phase;
          b_buffered = buffered;
          b_facts = facts;
          b_deposited = deposited;
          b_refunded = refunded;
          b_deposits = deposits;
          b_procs = [||];
          b_shell = Engine.silent;
          b_ins = ins;
        }
      in
      b.b_shell <- shell st b;
      Ids.replace st.live id ins;
      for l = 0 to n - 1 do
        (* profiler role labels: constant strings, interned only when the
           engine carries a profiler *)
        ignore
          (Engine.add_process st.engine ~pid:(base + l) ~base
             ~label:(st.legs.role p.proto l) b.b_shell)
      done;
      b.b_procs <- Array.init n (fun l -> Engine.record st.engine (base + l));
      ins

(* --- admit: the controller (pid 0) starts payments from the head of its
   queue while the in-flight cap and the legs' liquidity allow --- *)
let arr_label k = "arr#" ^ string_of_int k
let pat_label k = "pat#" ^ string_of_int k
let stuck_label k = "stuck#" ^ string_of_int k

let start_instance st ctx p j s =
  let ins = build st p j s in
  st.legs.reserve ins;
  (* Queue edge from the arrival note: the gap the walk crosses here is
     exactly this payment's wait behind admission *)
  if st.rows then
    ignore (note st ~after:st.roots.(p.k) ~trace:ins.id "admit#" ins.id);
  let base = 1 + (ins.id * st.stride) in
  for l = 0 to Array.length ins.i_blk.b_procs - 1 do
    Engine.send ctx ~dst:(base + l) Msg.Start
  done;
  ins.id

let try_admit st ctx p =
  (st.w.cap = 0 || st.in_flight < st.w.cap)
  &&
  match st.legs.route () with
  | None ->
      p.no_route <- true;
      false
  | Some splits ->
      p.admitted_at <- Engine.now st.engine;
      st.admitted <- st.admitted + 1;
      st.in_flight <- st.in_flight + 1;
      st.max_in_flight <- max st.max_in_flight st.in_flight;
      let n = List.length splits in
      st.total_paths <- st.total_paths + n;
      if n > 1 then st.split_payments <- st.split_payments + 1;
      p.unjudged <- n;
      p.split_viols <- Array.make n [];
      p.splits <- List.mapi (start_instance st ctx p) splits;
      p.draws <- [||];
      Engine.set_timer_after ctx ~after:st.stuck_eff ~label:(stuck_label p.k);
      Engine.cancel_timer ctx ~label:(pat_label p.k);
      true

let rec admit st ctx =
  match Ids.find st.pays (Queue.peek st.queue) with
  | exception Queue.Empty -> ()
  | exception Not_found ->
      ignore (Queue.pop st.queue);
      admit st ctx
  | p ->
      if p.closed || p.admitted_at >= 0 || try_admit st ctx p then begin
        ignore (Queue.pop st.queue);
        admit st ctx
      end

(* --- settle: a payment closes once every instance reported its
   settlement, or at its patience or stuck deadline --- *)
let close st ctx p =
  if not p.closed then begin
    p.closed <- true;
    if p.admitted_at >= 0 then st.in_flight <- st.in_flight - 1;
    (* settled instances hand back their unspent collateral; an unsettled
       (stuck) one may still deposit, and releasing its reservation would
       double-spend the collateral *)
    let splits = List.map (Ids.find st.live) p.splits in
    List.iter
      (fun ins ->
        if settled_at ins >= 0 then begin
          ins.i_released <- true;
          st.legs.release ins
        end)
      splits;
    if p.unjudged = 0 then finalize st p else List.iter (try_retire st) splits;
    Engine.cancel_timer ctx ~label:(stuck_label p.k);
    (match st.w.arrival with
    | Workload.Closed { clients; think } ->
        let next = p.k + clients in
        if next < st.w.payments then
          Engine.set_timer_after ctx ~after:(max 1 think)
            ~label:(arr_label next)
    | _ -> ());
    admit st ctx
  end

(* an instance's processes reported their settlement *)
let settle st ctx id =
  match Ids.find st.live id with
  | exception Not_found -> ()
  | ins ->
      let p = ins.i_pay in
      if (not ins.i_done) && settled_at ins >= 0 then begin
        ins.i_done <- true;
        p.settled <- p.settled + 1;
        if p.settled = List.length p.splits then close st ctx p
        else try_retire st ins
      end

(* --- arrive: payment [k] takes its draws and joins the queue --- *)
let arrive st ctx k =
  let proto, draws = take_draws st k in
  let p =
    {
      k;
      proto;
      arrived_at = Engine.now st.engine;
      draws;
      admitted_at = -1;
      closed = false;
      splits = [];
      no_route = false;
      settled = 0;
      unjudged = 0;
      split_viols = [||];
      all_paid = true;
      all_settled = true;
      any_paid = false;
      paid_max = 0;
      settled_max = -1;
    }
  in
  Ids.replace st.pays k p;
  let root = note st ~trace:(k * st.w.splits) "arrive#" k in
  if st.rows then begin
    st.roots.(k) <- root;
    st.row_arrived.(k) <- p.arrived_at
  end;
  Queue.add k st.queue;
  Engine.set_timer_after ctx ~after:st.w.patience ~label:(pat_label k);
  admit st ctx

let controller st =
  let with_pay k f =
    match Ids.find st.pays k with p -> f p | exception Not_found -> ()
  in
  {
    Engine.on_start =
      (fun ctx ->
        match Workload.arrival_seq st.w ~seed:st.seed with
        | Some arr ->
            Engine.set_timer_series ctx ~deadlines:arr ~label:arr_label
        | None -> (
            match st.w.arrival with
            | Workload.Closed { clients; _ } ->
                for c = 0 to min clients st.w.payments - 1 do
                  (* 1-tick stagger keeps first-round admission ordered *)
                  Engine.set_timer ctx ~deadline:(1 + c) ~label:(arr_label c)
                done
            | _ -> assert false));
    on_receive =
      (fun ctx ~src:_ msg ->
        match msg with
        | Msg.Traffic_done { payment } -> settle st ctx payment
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        if String.starts_with ~prefix:"arr#" label then
          arrive st ctx (label_index label 4)
        else if String.starts_with ~prefix:"pat#" label then
          with_pay (label_index label 4) (fun p ->
              if p.admitted_at < 0 then close st ctx p)
        else if String.starts_with ~prefix:"stuck#" label then
          with_pay (label_index label 6) (close st ctx));
  }

(* --- set-up beside the controller --- *)

(* [f proto k] for payment [k] of the mix, in payment order, while [f]
   returns [true] *)
let iter_mix st f =
  let rec go ps k =
    match ps () with
    | Seq.Cons (proto, rest) -> if f proto k then go rest (k + 1)
    | Seq.Nil -> ()
  in
  go (Workload.mix_seq st.w ~seed:st.seed) 0

(* Instance blocks are born at admission. A profiler numbers role labels
   in the order it first meets them, so meet them here in the order the
   blocks' slots would come if every block existed up front: block by
   block, slot by slot, until every protocol of the mix has shown up. *)
let intern_roles st pr =
  let unseen = ref (List.map fst st.w.mix) in
  iter_mix st (fun proto _ ->
      unseen := List.filter (( <> ) proto) !unseen;
      for _ = 1 to st.w.splits do
        for l = 0 to st.stride - 1 do
          ignore (Obsv.Prof.intern pr (st.legs.role proto l))
        done
      done;
      !unseen <> [])

(* The shared batching committee: one block right after the instance
   blocks, serving every instance's verdict item; [c_faulty] of its
   replicas (never the sequencer) are crash-silent from the start. A
   batch's instances retire together, once none can ask again (see
   [try_retire]), so the items it answers are live. *)
let add_committee st (c : Workload.committee) =
  let creg = Xcrypto.Auth.create ~seed:(st.seed + 71) in
  let signers = Array.init c.c_size (fun i -> Xcrypto.Auth.register creg i) in
  let hops_of id = (Ids.find st.live id).i_hops in
  let ccfg =
    {
      Committee_tm.qs = Result.get_ok (Workload.quorum_system c);
      registry = creg;
      batch_cap = c.c_batch;
      pipeline = c.c_pipeline;
      base_timeout = Weak_protocol.default_config.tm_base_timeout;
      (* verdict items are instance ids: only this run's shared handlers
         issue requests *)
      reply_to =
        (fun id ->
          let base = 1 + (id * st.stride) in
          Array.init ((2 * hops_of id) + 1) (fun l -> base + l));
      hops_of;
    }
  in
  (* one certificate checker, and so one memo, per run *)
  let verify = Committee_tm.verify ccfg ~signer:signers.(0) in
  let pids = Array.init c.c_size (fun i -> st.payment_limit + i) in
  st.shared <- shared_committee pids verify;
  Array.iteri
    (fun i pid ->
      let handlers =
        if i >= 1 && i <= c.c_faulty then Engine.silent
        else begin
          let handlers, com =
            Committee_tm.handlers ccfg ~index:i ~signer:signers.(i)
          in
          if i = 0 then st.sequencer <- Some com;
          handlers
        end
      in
      ignore
        (Engine.add_process st.engine ~clock:Clock.perfect
           ~base:st.payment_limit ~pid ~label:"notary" handlers))
    pids

(* host crashes expand to every instance block, born or not, labelled
   with the role the crashed slot has in each block *)
let schedule_crashes st =
  List.iter
    (fun (c : Faults.Fault_plan.crash_spec) ->
      iter_mix st (fun proto k ->
          for j = 0 to st.w.splits - 1 do
            Engine.schedule_crash st.engine
              ~pid:(1 + (((k * st.w.splits) + j) * st.stride) + c.pid)
              ~at:c.at ?recover_at:c.recover_at
              ~label:(st.legs.role proto c.pid) ()
          done;
          true))
    st.plan.Faults.Fault_plan.crashes

(* Online checks: exactly the run's post-hoc conservation audit
   re-evaluated on every dispatch, so the monitor's final verdict agrees
   with the report's [conservation_ok] by construction, plus the legs'
   own invariants *)
let watch st m =
  let legs = st.legs in
  Obsv.Monitor.register m ~name:"M" (fun () ->
      let i = Ledger.Book.first_unsound legs.books in
      if i < 0 then None
      else
        Some
          (Printf.sprintf "shared %s book %d failed its conservation audit"
             legs.book_kind i));
  List.iter
    (fun (name, check) -> Obsv.Monitor.register m ~name check)
    legs.checks

let sample st s =
  let gauges = st.legs.gauges in
  let columns =
    "queue_depth" :: "in_flight" :: "admitted"
    :: Array.to_list (Array.map fst gauges)
  in
  Obsv.Sampler.set_probe s ~columns (fun () ->
      Array.init
        (3 + Array.length gauges)
        (function
          | 0 -> Engine.queue_depth st.engine
          | 1 -> st.in_flight
          | 2 -> st.admitted
          | i -> snd gauges.(i - 3) ()))

(* --- judge what the run leaves: resident instances at its end, then
   their payments, then the payments that never arrived --- *)
let judge_rest st ~end_time =
  List.iter
    (fun ins -> judge st ins ~end_time)
    (List.sort
       (fun a b -> Int.compare a.id b.id)
       (Ids.fold (fun _ ins acc -> ins :: acc) st.live []));
  List.iter (finalize st)
    (List.sort
       (fun a b -> Int.compare a.k b.k)
       (Ids.fold (fun _ p acc -> p :: acc) st.pays []));
  Ids.iter
    (fun _ (proto, _) -> Tally.add (tally_of st proto) Rejected)
    st.ahead;
  Seq.iter
    (fun proto ->
      let t = tally_of st proto in
      Tally.assign t;
      Tally.add t Rejected)
    st.mix

(* --- report --- *)

(* Critical-path blame per paid instance: root = its payment's arrival
   note, sink = the deliver under which Bob's payout was released, so the
   category gaps sum exactly to the instance's commit latency. A message
   departs up to [sigma] after its send node (send-side compute), so the
   largest honest synchronous gap is [delta + sigma] — beyond that is GST
   wait. Every paid split of a routed payment keeps its own path, so
   partial outcomes stay attributable; a linear payment's only path
   counts once the payment committed. *)
let blame_of st c =
  let acc = ref [] in
  for id = (st.w.payments * st.w.splits) - 1 downto 0 do
    let k = id / st.w.splits in
    if
      st.roots.(k) >= 0
      && st.paid_nodes.(id) >= 0
      && (Option.is_some st.w.topology || st.row_outcome.(k) = Committed)
    then
      acc :=
        ( id,
          Obsv.Blame.attribute ~delta:(delta + sigma) c ~root:st.roots.(k)
            ~sink:st.paid_nodes.(id) )
        :: !acc
  done;
  !acc

(* [run] fills in the cost, whose window closes after this *)
let report st ~status =
  let w = st.w in
  let end_time = Engine.now st.engine in
  let conservation_ok = Ledger.Book.first_unsound st.legs.books < 0 in
  let violations =
    List.concat_map snd
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) st.violations)
    @
    if conservation_ok then []
    else
      [
        {
          payment = -1;
          property = "ES/M";
          detail =
            Printf.sprintf "a shared %s book failed its conservation audit"
              st.legs.book_kind;
        };
      ]
  in
  (* the run's total: the merge of its protocols' tallies *)
  let total =
    List.fold_left (fun acc (_, t) -> Tally.merge acc t) (Tally.create ())
      st.tallies
  in
  let committed = Tally.count total Committed in
  let blame_reports =
    match st.causal with None -> [] | Some c -> blame_of st c
  in
  let routing =
    Option.map
      (fun g ->
        {
          topology = Routing.Topology.to_string g;
          strategy = Routing.Router.strategy_name w.route;
          max_splits = w.splits;
          offered_value = w.payments * w.value;
          committed_value = st.committed_value;
          paths_selected = st.total_paths;
          split_payments = st.split_payments;
          partial_payments = st.partial_payments;
          no_route_rejections = st.no_route_rejections;
          instances_committed = st.inst_paid;
          instances_settled = st.inst_settled;
        })
      w.topology
  in
  {
    workload = w;
    seed = st.seed;
    plan = Faults.Fault_plan.to_string st.plan;
    status = Engine.status_name status;
    admitted = st.admitted;
    committed;
    aborted = Tally.count total Aborted;
    rejected = Tally.count total Rejected;
    stuck = Tally.count total Stuck;
    violated = Tally.count total Violated;
    violations;
    liquidity_rejections = st.liquidity_rejections;
    conservation_ok;
    latency_p50 = Tally.percentile total 50;
    latency_p95 = Tally.percentile total 95;
    latency_p99 = Tally.percentile total 99;
    latency_max = Tally.percentile total 100;
    makespan = end_time;
    throughput_cpm =
      (if end_time = 0 then 0 else committed * 1_000_000 / end_time);
    messages = st.messages;
    max_in_flight = st.max_in_flight;
    by_protocol =
      List.map
        (fun (pr, t) ->
          (Proto.name pr, Tally.assigned t, Tally.count t Committed))
        st.tallies;
    blame =
      Option.map
        (fun _ -> Obsv.Blame.aggregate (List.map snd blame_reports))
        st.causal;
    blame_reports;
    routing;
    committee_stats = Option.map Quorum.Committee.stats st.sequencer;
    events = Engine.events_processed st.engine;
    cost = Fleet.no_cost;
  }

(* --- telemetry --- *)
let emit_telemetry st (r : report) =
  let reg = Obsv.Metrics.default in
  let add_count ~help ?labels name n =
    if n > 0 then
      Obsv.Metrics.add (Obsv.Metrics.counter reg ~help ?labels name) n
  in
  List.iter
    (fun (pr, t) ->
      List.iter
        (fun o ->
          add_count ~help:"Load-run payment outcomes"
            ~labels:
              [ ("protocol", Proto.name pr); ("outcome", Tally.outcome_name o) ]
            "xchain_load_payments_total" (Tally.count t o))
        Tally.outcomes)
    st.tallies;
  (* one child per protocol, made in the order of each protocol's first
     committed payment *)
  List.iter
    (fun (pr, t) ->
      let h =
        Obsv.Metrics.histogram reg
          ~help:"Commit latency (arrival to Bob's payout), ticks"
          ~labels:[ ("protocol", Proto.name pr) ]
          "xchain_load_commit_latency"
      in
      List.iter
        (fun (lat, n) ->
          for _ = 1 to n do
            Obsv.Metrics.observe h lat
          done)
        (Tally.latencies t))
    (List.sort
       (fun (_, a) (_, b) ->
         Int.compare (Tally.first_commit a) (Tally.first_commit b))
       (List.filter (fun (_, t) -> Tally.count t Committed > 0) st.tallies));
  Obsv.Metrics.add
    (Obsv.Metrics.counter reg
       ~help:"In-protocol insufficient-funds deposit failures"
       "xchain_load_liquidity_rejections_total")
    r.liquidity_rejections;
  Obsv.Metrics.set
    (Obsv.Metrics.gauge reg ~help:"Peak concurrently admitted payments"
       "xchain_load_in_flight_max")
    r.max_in_flight;
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
    r.routing;
  if st.rows && Obsv.Span.capture Obsv.Span.default then begin
    let spans = Obsv.Span.default in
    let protos = Workload.assign_mix st.w ~seed:st.seed in
    let root =
      Obsv.Span.start spans ~name:"load"
        ~attrs:
          [
            ("payments", string_of_int st.w.payments);
            ("seed", string_of_int st.seed);
          ]
        ~at:0 ()
    in
    Array.iteri
      (fun k o ->
        let s =
          Obsv.Span.start spans ~parent:root ~name:"payment"
            ~attrs:
              [ ("id", string_of_int k); ("protocol", Proto.name protos.(k)) ]
            ~trace_id:(if Option.is_none st.causal then -1 else k * st.w.splits)
            ~root_event:st.roots.(k)
            ~at:(max 0 st.row_arrived.(k))
            ()
        in
        (* a stuck payment's span must never export as open-ended or as
           settling when the engine merely stopped: it is force-closed at
           the horizon the scheduler gave up at *)
        Obsv.Span.finish ~status:(Tally.outcome_name o)
          ~at:
            (if o = Stuck then st.horizon
             else if st.row_ended.(k) >= 0 then st.row_ended.(k)
             else r.makespan)
          s)
      st.row_outcome;
    Obsv.Span.finish ~status:r.status ~at:r.makespan root
  end

(* ------------------------------- run ---------------------------------- *)

let run_measured ?(plan = Faults.Fault_plan.none) ?causal ?prof ?monitor
    ?sampler ?recorder ~(workload : Workload.t) ~seed () =
  (match Workload.validate workload with
  | Ok () -> ()
  | Error e -> invalid_arg ("Load.run: " ^ e));
  (* Fault plans address hosts: logical pids 0 .. stride-1, applied to
     every instance block (one crashed escrow host is down for everyone). *)
  (match Faults.Fault_plan.validate plan ~nprocs:(hosts workload) with
  | Ok () -> ()
  | Error e -> invalid_arg ("Load.run: bad fault plan: " ^ e));
  let st = create ~plan ~causal ~prof ~monitor ~sampler ~w:workload ~seed in
  Trace.on_record (Engine.trace st.engine) (on_trace st);
  let cpid =
    Engine.add_process st.engine ~clock:Clock.perfect ~label:"sched"
      (controller st)
  in
  assert (cpid = 0);
  Option.iter (intern_roles st) prof;
  Option.iter (add_committee st) workload.committee;
  Engine.reserve_pids st.engine st.payment_limit;
  schedule_crashes st;
  Option.iter (watch st) monitor;
  Option.iter (sample st) sampler;
  Option.iter
    (fun rc -> Trace.on_record (Engine.trace st.engine) (Trace.record rc))
    recorder;
  let status =
    Engine.run ~horizon:st.horizon ~max_events:(event_budget workload)
      st.engine
  in
  judge_rest st ~end_time:(Engine.now st.engine);
  (st, report st ~status)

(* --- block reuse, seen from outside --- *)

type block_view = {
  v_payment : int;
  v_value : int;
  v_amounts : int array;
  v_held : int array;
  v_registry : Xcrypto.Auth.registry;
  v_slots : slot_view array;
  v_phase : string;
  v_buffered : (int * Msg.t) list array;
  v_facts : Fold.t;
  v_deposited : int array;
  v_refunded : int array;
  v_deposits : int list array;
  v_procs : string array;
  v_shared : Obj.t list;
  v_template : Runner.template;
  v_well_formed : (unit, string) result;
}

let block_view ins =
  let b = ins.i_blk in
  let env = b.b_env in
  {
    v_payment = env.Env.payment;
    v_value = env.Env.value;
    v_amounts = Array.copy env.Env.amounts;
    v_held = Array.copy env.Env.deposits;
    v_registry = env.Env.registry;
    v_slots = slot_views b.b_slots;
    v_phase = Bytes.to_string b.b_phase;
    v_buffered = Array.copy b.b_buffered;
    v_facts = b.b_facts;
    v_deposited = Array.copy b.b_deposited;
    v_refunded = Array.copy b.b_refunded;
    v_deposits = Array.copy b.b_deposits;
    v_procs = Array.map Engine.record_summary b.b_procs;
    v_shared =
      Obj.repr env.Env.topo :: Obj.repr env.Env.params
      :: Array.to_list (Array.map Obj.repr env.Env.books);
    v_template = ins.i_shape.template;
    v_well_formed = ins.i_shape.well_formed;
  }

let block_twins ?plan ~workload ~seed () =
  let st, _ = run_measured ?plan ~workload ~seed () in
  let w = st.w in
  let proto = fst (List.hd w.mix) in
  (* the path the last instance on a retired block of the protocol took *)
  let shape, split =
    match
      Hashtbl.fold
        (fun (pr, _) sh acc ->
          match List.find_opt block_spent sh.free with
          | Some b when pr = proto && acc = None ->
              let last = b.b_ins in
              Some
                ( sh,
                  {
                    Routing.Router.path = Array.to_list last.i_path;
                    value = last.i_value;
                  } )
          | _ -> acc)
        st.shapes None
    with
    | Some found -> found
    | None -> invalid_arg "Load.block_twins: no retired block to reuse"
  in
  (* an instance id whose pids no payment and no committee replica has
     had *)
  let committee = match w.committee with Some c -> c.c_size | None -> 0 in
  let k = w.payments + committee in
  let id = k * w.splits in
  let now = Engine.now st.engine in
  let p =
    {
      k;
      proto;
      arrived_at = now;
      draws = Array.make w.splits (Array.make (3 * st.stride) 0);
      admitted_at = now;
      closed = false;
      splits = [ id ];
      no_route = false;
      settled = 0;
      unjudged = 1;
      split_viols = [| [] |];
      all_paid = true;
      all_settled = true;
      any_paid = false;
      paid_max = 0;
      settled_max = -1;
    }
  in
  let reset = build st p 0 split in
  let reset_view = block_view reset in
  (* its records leave the engine at once, since nothing was queued for
     them, so a new block can be born at the same pids *)
  let base = 1 + (id * st.stride) in
  Array.iteri
    (fun l _ -> Engine.retire st.engine (base + l))
    reset.i_blk.b_procs;
  Ids.remove st.live id;
  shape.free <- [];
  (reset_view, block_view (build st p 0 split))

let run ?plan ?causal ?prof ?monitor ?sampler ?recorder ~workload ~seed () =
  let (st, r), cost =
    Fleet.measure
      (run_measured ?plan ?causal ?prof ?monitor ?sampler ?recorder ~workload
         ~seed)
  in
  let r = { r with cost } in
  emit_telemetry st r;
  r

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
        ",\"max_splits\":%d,\"offered_value\":%d,\"committed_value\":%d,\"paths_selected\":%d,\"split_payments\":%d,\"partial_payments\":%d,\"no_route_rejections\":%d,\"instances_committed\":%d,\"instances_settled\":%d}"
        s.max_splits s.offered_value s.committed_value s.paths_selected
        s.split_payments s.partial_payments s.no_route_rejections
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
  (* the host cost is the one nondeterministic member; it comes last so
     byte-identity checks can strip it (scripts/strip_timing.py) *)
  Buffer.add_string b (Fleet.timing_json ~events:r.events r.cost);
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
        s.committed_value s.offered_value s.instances_committed
        s.paths_selected s.no_route_rejections)
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
