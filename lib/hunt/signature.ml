module C = Xchain.Chaos
module V = Props.Verdict
module FP = Faults.Fault_plan

type t = {
  classification : C.classification;
  failed : string list;
  blame : int array;
  injected : int array;
  clauses : int array;
  path : int;
  breach : int;
}

(* log-ish bucket: 0, 1, 2–3, 4–7, 8+ *)
let count_bucket n =
  if n <= 0 then 0 else if n = 1 then 1 else if n <= 3 then 2
  else if n <= 7 then 3
  else 4

(* share-of-total bucket: 0, (0,10%], (10,40%], (40,80%], >80% *)
let share_bucket ~total gap =
  if gap <= 0 || total <= 0 then 0
  else
    let pct = 100 * gap / total in
    if pct <= 10 then 1 else if pct <= 40 then 2 else if pct <= 80 then 3
    else 4

let cap2 n = Stdlib.min 2 n

(* first-breach sim-time, log-decade buckets: 0 = never tripped (or the
   run was unmonitored), then early / mid / late / very late *)
let time_bucket t =
  if t < 0 then 0 else if t <= 100 then 1 else if t <= 1_000 then 2
  else if t <= 10_000 then 3
  else 4

let blame_levels ?causal ~delta (r : C.run_result) =
  match causal with
  | None -> [||]
  | Some c ->
      let sink =
        if r.C.paid_node >= 0 then r.C.paid_node else r.C.settled_node
      in
      if sink <= 0 || Obsv.Causal.node_count c = 0 then [||]
      else begin
        let rep = Obsv.Blame.attribute ~delta c ~root:0 ~sink in
        Array.of_list
          (List.map
             (fun (_, gap) -> share_bucket ~total:rep.Obsv.Blame.total gap)
             rep.Obsv.Blame.by_category)
      end

(* How many clauses of each shape did anything: the plan-shape-independent
   fold of the injector's per-clause counters. Capped at 2 so the key
   space stays small ("none / one / several"), not plan-size-shaped. *)
let clause_profile (r : C.run_result) =
  let plan = r.C.plan in
  let fired = r.C.fired in
  if Array.length fired = 0 then Array.make 5 0
  else begin
    let nl = List.length plan.FP.links in
    let nc = List.length plan.FP.crashes in
    let np = List.length plan.FP.partitions in
    let count lo n pred =
      let hits = ref 0 in
      for i = lo to lo + n - 1 do
        if pred fired.(i) then incr hits
      done;
      !hits
    in
    let links_fired = count 0 nl (fun h -> h > 0) in
    let crashes_fired = count nl nc (fun h -> h >= 1) in
    let recoveries = count nl nc (fun h -> h >= 2) in
    let parts_fired = count (nl + nc) np (fun h -> h > 0) in
    let gst = if Array.length fired > nl + nc + np then fired.(nl + nc + np) else 0 in
    [|
      cap2 links_fired; cap2 crashes_fired; cap2 recoveries; cap2 parts_fired;
      (if gst > 0 then 1 else 0);
    |]
  end

let of_run ?causal ~delta (r : C.run_result) =
  {
    classification = r.C.classification;
    failed =
      List.sort String.compare
        (List.map (fun v -> v.V.property) r.C.failures);
    blame = blame_levels ?causal ~delta r;
    injected = Array.map count_bucket r.C.injected;
    clauses = clause_profile r;
    (* path-shape bucket: constant for a fixed-hops hunt, it starts
       discriminating when topology-routed runs mix path lengths *)
    path = count_bucket r.C.hops;
    breach = time_bucket r.C.breach_at;
  }

let digits a =
  String.init (Array.length a) (fun i -> Char.chr (Char.code '0' + a.(i)))

let to_string s =
  Printf.sprintf "%s|%s|b%s|i%s|c%s|p%d|t%d"
    (C.classification_name s.classification)
    (String.concat "," s.failed)
    (if Array.length s.blame = 0 then "-" else digits s.blame)
    (digits s.injected) (digits s.clauses) s.path s.breach
