open Sim

type t = {
  plan : Fault_plan.t;
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

(* Does an active partition separate src from dst at [now]? A pid absent
   from every group of a spec is unaffected by that spec. The index of
   the first separating spec is the clause charged with the suppression. *)
let partition_index plan ~now ~src ~dst =
  let rec go i = function
    | [] -> None
    | (s : Fault_plan.partition_spec) :: rest ->
        let active =
          Sim_time.(s.from_ <= now)
          && match s.until_ with None -> true | Some u -> Sim_time.(now < u)
        in
        let separates =
          active
          &&
          let group_of pid =
            let rec look k = function
              | [] -> None
              | g :: gs -> if List.mem pid g then Some k else look (k + 1) gs
            in
            look 0 s.groups
          in
          match (group_of src, group_of dst) with
          | Some a, Some b -> a <> b
          | _ -> false
        in
        if separates then Some i else go (i + 1) rest
  in
  go 0 plan.Fault_plan.partitions

(* Max per-kind probabilities over all rules matching (src, dst), plus the
   index of the first rule achieving each max — the clause an injection of
   that kind is attributed to. *)
let link_pms plan ~src ~dst =
  let rec go i (d, di, u, ui, c, ci) = function
    | [] -> (d, di, u, ui, c, ci)
    | (r : Fault_plan.link_rule) :: rest ->
        let m side pid = match side with None -> true | Some p -> p = pid in
        let acc =
          if m r.src src && m r.dst dst then begin
            let pick cur curi pm = if pm > cur then (pm, i) else (cur, curi) in
            let d, di = pick d di r.drop_pm in
            let u, ui = pick u ui r.dup_pm in
            let c, ci = pick c ci r.corrupt_pm in
            (d, di, u, ui, c, ci)
          end
          else (d, di, u, ui, c, ci)
        in
        go (i + 1) acc rest
  in
  go 0 (0, -1, 0, -1, 0, -1) plan.Fault_plan.links

let charge_link t ~kind ~rule =
  if rule >= 0 then t.link_hits.(rule) <- t.link_hits.(rule) + 1;
  t.kind_hits.(kind) <- t.kind_hits.(kind) + 1

let tamper t : Network.tamper =
 fun ~send_time ~src ~dst ~tag:_ ->
  match partition_index t.plan ~now:send_time ~src ~dst with
  | Some i ->
      Obsv.Metrics.inc t.m_partition;
      t.part_hits.(i) <- t.part_hits.(i) + 1;
      t.kind_hits.(3) <- t.kind_hits.(3) + 1;
      []
  | None ->
      let drop_pm, drop_i, dup_pm, dup_i, corrupt_pm, corrupt_i =
        link_pms t.plan ~src ~dst
      in
      let roll pm = pm > 0 && Rng.int t.rng 1000 < pm in
      if roll drop_pm then begin
        Obsv.Metrics.inc t.m_drop;
        charge_link t ~kind:0 ~rule:drop_i;
        []
      end
      else begin
        let ncopies =
          if roll dup_pm then begin
            Obsv.Metrics.inc t.m_dup;
            charge_link t ~kind:1 ~rule:dup_i;
            2
          end
          else 1
        in
        List.init ncopies (fun _ ->
            if roll corrupt_pm then begin
              Obsv.Metrics.inc t.m_corrupt;
              charge_link t ~kind:2 ~rule:corrupt_i;
              Network.Corrupted
            end
            else Network.Intact)
      end

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
