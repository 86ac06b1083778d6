type span = {
  id : int;
  parent : int option;
  name : string;
  start_time : int;
  mutable end_time : int; (* -1 while running *)
  mutable status : string;
  attrs : (string * string) list;
  recorded : bool; (* false for the dummy returned when capture is off *)
  trace_id : int; (* causal trace id, -1 when the span is not linked *)
  root_event : int; (* causal node id of the span's root event, or -1 *)
}

type t = {
  mutable next_id : int;
  mutable rev_spans : span list;
  mutable capturing : bool;
}

let create () = { next_id = 0; rev_spans = []; capturing = true }

(* Off until a caller asks for spans: nobody reads a collector that no one
   writes out, and one left on grows by every payment of a long run. *)
let default = { (create ()) with capturing = false }

(* Collectors are shared across fleet domains (Runner records into
   [default]); appending a span is a multi-field update, so it needs a
   lock. Span recording is per-participant-per-phase — dozens of calls
   per payment, not per event — so this is nowhere near a hot path. *)
let collector_mutex = Mutex.create ()

let set_capture t b = t.capturing <- b
let capture t = t.capturing

let start t ?parent ?(attrs = []) ?(trace_id = -1) ?(root_event = -1) ~name
    ~at () =
  if at < 0 then invalid_arg "Span.start: negative time";
  let parent =
    match parent with
    | Some p when p.recorded -> Some p.id
    | _ -> None
  in
  if not t.capturing then
    {
      id = -1;
      parent = None;
      name;
      start_time = at;
      end_time = -1;
      status = "running";
      attrs;
      recorded = false;
      trace_id;
      root_event;
    }
  else
    Mutex.protect collector_mutex (fun () ->
        let s =
          {
            id = t.next_id;
            parent;
            name;
            start_time = at;
            end_time = -1;
            status = "running";
            attrs;
            recorded = true;
            trace_id;
            root_event;
          }
        in
        t.next_id <- t.next_id + 1;
        t.rev_spans <- s :: t.rev_spans;
        s)

let finish ?(status = "ok") ~at s =
  if s.end_time >= 0 then invalid_arg "Span.finish: span already finished";
  if at < s.start_time then invalid_arg "Span.finish: ends before it starts";
  s.end_time <- at;
  s.status <- status

let span_attrs s = List.rev s.attrs
let spans t = List.rev t.rev_spans

let clear t =
  t.rev_spans <- [];
  t.next_id <- 0

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "{\"id\":%d,\"parent\":" s.id);
      (match s.parent with
      | None -> Buffer.add_string buf "null"
      | Some p -> Buffer.add_string buf (string_of_int p));
      Buffer.add_string buf
        (Printf.sprintf ",\"name\":\"%s\",\"start\":%d,\"end\":"
           (Metrics.json_escape s.name) s.start_time);
      if s.end_time < 0 then Buffer.add_string buf "null"
      else Buffer.add_string buf (string_of_int s.end_time);
      Buffer.add_string buf
        (Printf.sprintf ",\"status\":\"%s\"" (Metrics.json_escape s.status));
      (* causal-join fields appear only on linked spans, so span dumps from
         untraced runs are byte-identical to what they always were *)
      if s.trace_id >= 0 then
        Buffer.add_string buf (Printf.sprintf ",\"trace\":%d" s.trace_id);
      if s.root_event >= 0 then
        Buffer.add_string buf
          (Printf.sprintf ",\"root_event\":%d" s.root_event);
      Buffer.add_string buf ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k)
               (Metrics.json_escape v)))
        (span_attrs s);
      Buffer.add_string buf "}}\n")
    (spans t);
  Buffer.contents buf
