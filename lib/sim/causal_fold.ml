module C = Obsv.Causal

module Pids = Int_table

(* A pid's place in the graph: program order and its latest outage. *)
type host = {
  mutable last : int; (* latest node on this pid *)
  mutable crashed : int; (* its latest crash node *)
  mutable rebooted : int; (* its latest recovery node *)
}

type ('msg, 'obs) t = {
  engine : ('msg, 'obs) Engine.t;
  graph : C.t;
  hosts : host Pids.t;
  mutable node_of : int array; (* trace seq -> node of that entry, or -1 *)
  mutable seq : int; (* entries folded so far: the next entry's seq *)
  mutable current : int;
}

let host f pid =
  match Pids.find f.hosts pid with
  | h -> h
  | exception Not_found ->
      let h = { last = -1; crashed = -1; rebooted = -1 } in
      Pids.replace f.hosts pid h;
      h

(* Append a node on [h]'s pid, chained after the pid's previous one. *)
let node f h ~kind ~pid ~at ~trace ~label =
  let n = C.record f.graph ~kind ~pid ~at ~trace ~label () in
  if h.last >= 0 then C.add_edge f.graph ~kind:C.Program ~src:h.last ~dst:n;
  h.last <- n;
  f.current <- n;
  n

(* A delivery or firing: linked from the node of entry [origin], whose
   payment tag it inherits. *)
let descend f h ~kind ~edge ~pid ~at ~label ~origin =
  let src = f.node_of.(origin) in
  let trace = C.trace_of f.graph src in
  Engine.set_trace_tag f.engine trace;
  let n = node f h ~kind ~pid ~at ~trace ~label in
  C.add_edge f.graph ~kind:edge ~src ~dst:n;
  n

let on_entry f (entry : _ Trace.entry) =
  let tag = Engine.trace_tag f.engine in
  let made =
    match entry with
    | Sent { t; src = pid; tag = label; _ } ->
        node f (host f pid) ~kind:C.Send ~pid ~at:t ~trace:tag ~label
    | Timer_set { t; owner = pid; label; _ } ->
        node f (host f pid) ~kind:C.Timer_set ~pid ~at:t ~trace:tag ~label
    | Delivered { t; dst = pid; tag = label; sent_seq; _ } ->
        descend f (host f pid) ~kind:C.Deliver ~edge:C.Message ~pid ~at:t
          ~label ~origin:sent_seq
    | Timer_fired { t; owner = pid; label; set_seq; deferred } ->
        let h = host f pid in
        let n =
          descend f h ~kind:C.Timer_fire ~edge:C.Timer ~pid ~at:t ~label
            ~origin:set_seq
        in
        (* a firing pushed past an outage also happens-after the reboot,
           which is what lets blame charge the dead time *)
        if deferred && h.rebooted >= 0 then
          C.add_edge f.graph ~kind:C.Outage ~src:h.rebooted ~dst:n;
        n
    | Crashed { t; pid; _ } ->
        let h = host f pid in
        h.crashed <-
          node f h ~kind:C.Crash ~pid ~at:t ~trace:(-1) ~label:"crash";
        h.crashed
    | Recovered { t; pid } ->
        (* program order already chains recover after crash; the Outage
           edge re-labels that gap as downtime for blame *)
        let h = host f pid in
        let n =
          node f h ~kind:C.Recover ~pid ~at:t ~trace:(-1) ~label:"recover"
        in
        if h.crashed >= 0 then
          C.add_edge f.graph ~kind:C.Outage ~src:h.crashed ~dst:n;
        h.rebooted <- n;
        n
    | Observed _ | Halted _ -> -1
  in
  if f.seq = Array.length f.node_of then
    f.node_of <- Array.append f.node_of (Array.make (max 256 f.seq) (-1));
  f.node_of.(f.seq) <- made;
  f.seq <- f.seq + 1

let attach engine graph =
  let tr = Engine.trace engine in
  if Trace.length tr > 0 then
    invalid_arg "Causal_fold.attach: the trace already has entries";
  let f =
    { engine; graph; hosts = Pids.create 64; node_of = [||]; seq = 0;
      current = -1 }
  in
  Trace.on_record tr (on_entry f);
  f

let current_node f = f.current

let note f ~pid ?(after = -1) ?trace ~label () =
  let trace = Option.value trace ~default:(Engine.trace_tag f.engine) in
  let n =
    node f (host f pid) ~kind:C.Note ~pid ~at:(Engine.now f.engine) ~trace
      ~label
  in
  if after >= 0 then C.add_edge f.graph ~kind:C.Queue ~src:after ~dst:n;
  Engine.set_trace_tag f.engine trace;
  n
