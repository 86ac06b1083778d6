open Sim

type t = {
  plan : Fault_plan.t;
  links : Fault_plan.link_rule array;  (** the plan's link rules *)
  rng : Rng.t;
  link_hits : int array;  (** injections attributed per link rule *)
  part_hits : int array;  (** sends suppressed per partition spec *)
  kind_hits : int array;  (** drop / dup / corrupt / partition totals *)
  mutable gst_applied : bool;
  m_drop : Obsv.Metrics.counter;
  m_dup : Obsv.Metrics.counter;
  m_corrupt : Obsv.Metrics.counter;
  m_partition : Obsv.Metrics.counter;
}

let handles =
  Obsv.Metrics.memo @@ fun metrics ->
  let help = "Faults injected into the network by the active fault plan" in
  let kind k =
    Obsv.Metrics.counter metrics ~help ~labels:[ ("kind", k) ]
      "xchain_faults_injected_total"
  in
  (kind "drop", kind "duplicate", kind "corrupt", kind "partition")

let create ?(metrics = Obsv.Metrics.default) ~plan ~seed () =
  let m_drop, m_dup, m_corrupt, m_partition = handles metrics in
  {
    plan;
    links = Array.of_list plan.Fault_plan.links;
    rng = Rng.split (Rng.create ~seed);
    link_hits = Array.make (List.length plan.Fault_plan.links) 0;
    part_hits = Array.make (List.length plan.Fault_plan.partitions) 0;
    kind_hits = Array.make 4 0;
    gst_applied = false;
    m_drop;
    m_dup;
    m_corrupt;
    m_partition;
  }

let plan t = t.plan

(* A send's fate is decided without allocating: partitions and link
   rules are scanned by top-level functions, and the copy lists are
   constants. *)

(* the index of the group holding [pid], counting from [k], or -1: a pid
   absent from every group of a spec is unaffected by that spec *)
let rec group_of pid k = function
  | [] -> -1
  | g :: gs -> if List.mem pid g then k else group_of pid (k + 1) gs

let separates (s : Fault_plan.partition_spec) ~now ~src ~dst =
  Sim_time.(s.from_ <= now)
  && (match s.until_ with None -> true | Some u -> Sim_time.(now < u))
  &&
  let a = group_of src 0 s.groups and b = group_of dst 0 s.groups in
  a >= 0 && b >= 0 && a <> b

(* The index, counting from [i], of the first spec whose active partition
   separates src from dst at [now], or -1: the clause charged with the
   suppression. *)
let rec partition_index i ~now ~src ~dst = function
  | [] -> -1
  | s :: rest ->
      if separates s ~now ~src ~dst then i
      else partition_index (i + 1) ~now ~src ~dst rest

let drop_kind = 0
let dup_kind = 1
let corrupt_kind = 2

let pm_of kind (r : Fault_plan.link_rule) =
  if kind = drop_kind then r.drop_pm
  else if kind = dup_kind then r.dup_pm
  else r.corrupt_pm

let matches side pid = match side with None -> true | Some p -> p = pid

(* Rules combine by max per kind: the index of the first rule matching
   (src, dst) that achieves the kind's largest nonzero probability, the
   clause an injection of that kind is attributed to, or -1. [found] and
   [found_pm] are the best so far among the rules before [i]. *)
let rec best_rule links kind ~src ~dst i found found_pm =
  if i = Array.length links then found
  else
    let (r : Fault_plan.link_rule) = links.(i) in
    let pm = if matches r.src src && matches r.dst dst then pm_of kind r else 0 in
    if pm > found_pm then best_rule links kind ~src ~dst (i + 1) i pm
    else best_rule links kind ~src ~dst (i + 1) found found_pm

(* Roll the kind's best rule for (src, dst); a hit is counted and charged
   to that rule. *)
let hit t kind counter ~src ~dst =
  let rule = best_rule t.links kind ~src ~dst 0 (-1) 0 in
  rule >= 0
  && Rng.int t.rng 1000 < pm_of kind t.links.(rule)
  &&
  (Obsv.Metrics.inc counter;
   t.link_hits.(rule) <- t.link_hits.(rule) + 1;
   t.kind_hits.(kind) <- t.kind_hits.(kind) + 1;
   true)

let copy t ~src ~dst =
  if hit t corrupt_kind t.m_corrupt ~src ~dst then Network.Corrupted
  else Network.Intact

let one = function
  | Network.Intact -> [ Network.Intact ]
  | Network.Corrupted -> [ Network.Corrupted ]

let two first second =
  match (first, second) with
  | Network.Intact, Network.Intact -> [ Network.Intact; Network.Intact ]
  | Network.Intact, Network.Corrupted -> [ Network.Intact; Network.Corrupted ]
  | Network.Corrupted, Network.Intact -> [ Network.Corrupted; Network.Intact ]
  | Network.Corrupted, Network.Corrupted ->
      [ Network.Corrupted; Network.Corrupted ]

let tamper t : Network.tamper =
 fun ~send_time ~src ~dst ~tag:_ ->
  let i = partition_index 0 ~now:send_time ~src ~dst t.plan.Fault_plan.partitions in
  if i >= 0 then begin
    Obsv.Metrics.inc t.m_partition;
    t.part_hits.(i) <- t.part_hits.(i) + 1;
    t.kind_hits.(3) <- t.kind_hits.(3) + 1;
    []
  end
  else if hit t drop_kind t.m_drop ~src ~dst then []
  else if hit t dup_kind t.m_dup ~src ~dst then
    let first = copy t ~src ~dst in
    two first (copy t ~src ~dst)
  else one (copy t ~src ~dst)

let schedule_crashes t engine =
  List.iter
    (fun (c : Fault_plan.crash_spec) ->
      Engine.schedule_crash engine ~pid:c.pid ~at:c.at ?recover_at:c.recover_at
        ())
    t.plan.Fault_plan.crashes

let jittered_model t = function
  | Network.Partially_synchronous { gst; delta }
    when t.plan.Fault_plan.gst_jitter > 0 ->
      t.gst_applied <- true;
      Network.Partially_synchronous
        { gst = Sim_time.add gst t.plan.Fault_plan.gst_jitter; delta }
  | m -> m

let kind_counts t = Array.copy t.kind_hits

let clause_hits t ~end_time =
  let crash (c : Fault_plan.crash_spec) =
    (if Sim_time.(c.at <= end_time) then 1 else 0)
    +
    match c.recover_at with
    | Some r when Sim_time.(r <= end_time) -> 1
    | _ -> 0
  in
  Array.concat
    [
      Array.copy t.link_hits;
      Array.of_list (List.map crash t.plan.Fault_plan.crashes);
      Array.copy t.part_hits;
      (if t.plan.Fault_plan.gst_jitter > 0 then
         [| (if t.gst_applied then 1 else 0) |]
       else [||]);
    ]
