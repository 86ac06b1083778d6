open Protocols
module PP = Props.Payment_props
module V = Props.Verdict

type result = {
  corners : int;
  violations : int;
  first_witness : string option;
  events : int;
  cost : Fleet.cost;
}

(* The sync protocol sends exactly 6 messages per hop (G, $, P, χ,
   χ-forward, settlement $); naive is the same automaton. *)
let message_budget ~hops ~protocol =
  match protocol with
  | Runner.Sync_timebound | Runner.Naive_universal -> 6 * hops
  | Runner.Htlc -> (5 * hops) + 1
  | Runner.Weak _ | Runner.Atomic _ ->
      invalid_arg "Explore.message_budget: TM protocols are not corner-enumerable here"

(* A bit-vector adversary: the k-th send of the run takes its delay from
   bit k — set means the model's upper bound, clear means the lower. *)
let bitvector_adversary bits : Sim.Network.adversary =
  let counter = ref 0 in
  fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds ->
    let k = !counter in
    incr counter;
    let hi = k < 62 && (bits lsr k) land 1 = 1 in
    Some (if hi then bounds.Sim.Network.hi else bounds.Sim.Network.lo)

let corner_clock ~drift_ppm fast =
  let ppm = 1_000_000 in
  let num = if fast then ppm + drift_ppm else ppm - drift_ppm in
  Sim.Clock.create ~num ~den:ppm ()

let describe ~hops ~delay_bits ~clock_bits ~msgs ~procs report =
  Fmt.str "hops=%d delays=0x%x/%d clocks=0x%x/%d -> %a" hops delay_bits msgs
    clock_bits procs
    Fmt.(list ~sep:(any "; ") V.pp)
    (V.failures report)

(* Everything except the trailing "timing" member is deterministic; see
   Chaos.summary_to_json for the convention. *)
let result_to_json ?(hops = 1) ?(drift_ppm = 50_000) ~protocol r =
  let protocol_name = Runner.protocol_name protocol in
  let witness =
    match r.first_witness with
    | None -> "null"
    | Some w -> "\"" ^ Obsv.Metrics.json_escape w ^ "\""
  in
  Printf.sprintf
    "{\"explore\":{\"hops\":%d,\"protocol\":\"%s\",\"drift_ppm\":%d,\
     \"corners\":%d,\"violations\":%d,\"first_witness\":%s,\"events\":%d}%s}\n"
    hops protocol_name drift_ppm r.corners r.violations witness r.events
    (Fleet.timing_json ~events:r.events r.cost)

let sweep ?(hops = 1) ?(drift_ppm = 50_000) ?(max_corners = 600_000) ?domains
    ?prof ?on_progress ~protocol () =
  (* profiled sweeps run on one domain: the profiler is single-threaded *)
  let domains = match prof with Some _ -> Some 1 | None -> domains in
  let msgs = message_budget ~hops ~protocol in
  let procs = (2 * hops) + 1 in
  if msgs + procs >= 40 then
    invalid_arg "Explore.sweep: instance too large to enumerate";
  let total = (1 lsl msgs) * (1 lsl procs) in
  if total > max_corners then
    invalid_arg
      (Printf.sprintf "Explore.sweep: %d corners exceed the budget %d" total
         max_corners);
  (* Corner [i] flattens the original (delay outer, clock inner) loop
     nest, so job ids preserve the historical enumeration order and
     "first witness" means the same corner at any domain count. *)
  let corner i =
    let delay_bits = i lsr procs and clock_bits = i land ((1 lsl procs) - 1) in
    let cfg =
      {
        (Runner.default_config ~hops ~seed:1) with
        drift_ppm;
        prof;
        adversary = Some (bitvector_adversary delay_bits);
        clock_override =
          Some
            (fun pid -> corner_clock ~drift_ppm ((clock_bits lsr pid) land 1 = 1));
      }
    in
    let o = Runner.run cfg protocol in
    let report = PP.check (PP.view o) in
    let witness =
      if V.all_hold report then None
      else Some (describe ~hops ~delay_bits ~clock_bits ~msgs ~procs report)
    in
    (o.Runner.events, witness)
  in
  let outcomes, stats = Fleet.run ?domains ?on_progress ~jobs:total corner in
  let violations = ref 0 and events = ref 0 and first_witness = ref None in
  Array.iter
    (function
      | Error (f : Fleet.failure) ->
          failwith
            (Printf.sprintf "Explore.sweep: corner %d raised: %s" f.Fleet.job
               f.Fleet.message)
      | Ok (ev, witness) -> (
          events := !events + ev;
          match witness with
          | None -> ()
          | Some w ->
              incr violations;
              if !first_witness = None then first_witness := Some w))
    outcomes;
  {
    corners = total;
    violations = !violations;
    first_witness = !first_witness;
    events = !events;
    cost = stats.Fleet.cost;
  }
