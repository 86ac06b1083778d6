type kind = Send | Deliver | Timer_set | Timer_fire | Crash | Recover | Note

type edge_kind = Program | Message | Timer | Queue | Outage

let kind_name = function
  | Send -> "send"
  | Deliver -> "deliver"
  | Timer_set -> "timer_set"
  | Timer_fire -> "timer_fire"
  | Crash -> "crash"
  | Recover -> "recover"
  | Note -> "note"

let edge_name = function
  | Program -> "program"
  | Message -> "message"
  | Timer -> "timer"
  | Queue -> "queue"
  | Outage -> "outage"

type node = {
  kind : kind;
  pid : int;
  at : int;
  label : string;
  trace : int;
  mutable rev_preds : (edge_kind * int) list;
}

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable edges : int;
}

let dummy =
  { kind = Note; pid = -1; at = 0; label = ""; trace = -1; rev_preds = [] }

let create () = { nodes = [||]; n = 0; edges = 0 }

let node_count t = t.n
let edge_count t = t.edges

let node t i =
  if i < 0 || i >= t.n then invalid_arg "Causal: node id out of range";
  t.nodes.(i)

let record t ~kind ~pid ~at ?(trace = -1) ~label () =
  if at < 0 then invalid_arg "Causal.record: negative time";
  let nd = { kind; pid; at; label; trace; rev_preds = [] } in
  let cap = Array.length t.nodes in
  if t.n >= cap then begin
    let nn = Array.make (Stdlib.max 64 (2 * cap)) dummy in
    Array.blit t.nodes 0 nn 0 t.n;
    t.nodes <- nn
  end;
  t.nodes.(t.n) <- nd;
  t.n <- t.n + 1;
  t.n - 1

let add_edge t ~kind ~src ~dst =
  if src < 0 || dst <= src || dst >= t.n then
    invalid_arg "Causal.add_edge: edges must go forward (src < dst)";
  let nd = t.nodes.(dst) in
  nd.rev_preds <- (kind, src) :: nd.rev_preds;
  t.edges <- t.edges + 1

let kind_of t i = (node t i).kind
let pid_of t i = (node t i).pid
let time_of t i = (node t i).at
let trace_of t i = (node t i).trace
let label_of t i = (node t i).label
let preds t i = List.rev (node t i).rev_preds

let iter_edges t ~f =
  for dst = 0 to t.n - 1 do
    List.iter (fun (kind, src) -> f ~kind ~src ~dst) (preds t dst)
  done

(* ------------------------------ exporters ------------------------------ *)

let to_jsonl t =
  let buf = Buffer.create (256 * (t.n + 1)) in
  for i = 0 to t.n - 1 do
    let nd = t.nodes.(i) in
    Printf.bprintf buf
      {|{"id":%d,"kind":"%s","pid":%d,"t":%d,"trace":%d,"label":"%s","preds":[|}
      i (kind_name nd.kind) nd.pid nd.at nd.trace
      (Metrics.json_escape nd.label);
    List.iteri
      (fun j (k, s) ->
        if j > 0 then Buffer.add_char buf ',';
        Printf.bprintf buf {|{"kind":"%s","src":%d}|} (edge_name k) s)
      (List.rev nd.rev_preds);
    Buffer.add_string buf "]}\n"
  done;
  Buffer.contents buf

let to_chrome ?(payments = []) t =
  let buf = Buffer.create (256 * (t.n + 1)) in
  let first = ref true in
  let event fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string buf ",\n";
        Buffer.add_string buf s)
      fmt
  in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  event
    {|{"ph":"M","pid":0,"name":"process_name","args":{"name":"engine"}}|};
  if payments <> [] then
    event
      {|{"ph":"M","pid":1,"name":"process_name","args":{"name":"payments"}}|};
  (* one named track per engine pid that recorded at least one node *)
  let seen = Hashtbl.create 64 in
  for i = 0 to t.n - 1 do
    let pid = t.nodes.(i).pid in
    if not (Hashtbl.mem seen pid) then begin
      Hashtbl.add seen pid ();
      event
        {|{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"pid %d"}}|}
        pid pid
    end
  done;
  for i = 0 to t.n - 1 do
    let nd = t.nodes.(i) in
    event
      {|{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":"%s:%s","cat":"%s","args":{"id":%d,"trace":%d}}|}
      nd.pid nd.at (kind_name nd.kind)
      (Metrics.json_escape nd.label)
      (kind_name nd.kind) i nd.trace
  done;
  (* flow arrows for message transit: one s/f pair per Message edge, keyed
     by the destination node id (unique per edge since a deliver has one
     message predecessor) *)
  iter_edges t ~f:(fun ~kind ~src ~dst ->
      if kind = Message then begin
        let s = t.nodes.(src) and d = t.nodes.(dst) in
        event
          {|{"ph":"s","pid":0,"tid":%d,"ts":%d,"id":%d,"name":"msg","cat":"flow"}|}
          s.pid s.at dst;
        event
          {|{"ph":"f","bp":"e","pid":0,"tid":%d,"ts":%d,"id":%d,"name":"msg","cat":"flow"}|}
          d.pid d.at dst
      end);
  List.iter
    (fun (name, track, start, end_, status) ->
      event
        {|{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"name":"%s","cat":"payment","args":{"status":"%s"}}|}
        track start
        (Stdlib.max 0 (end_ - start))
        (Metrics.json_escape name)
        (Metrics.json_escape status))
    payments;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
