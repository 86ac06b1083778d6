(* Sim-time telemetry sampler: a probe closure read at a fixed sim-time
   cadence, accumulating one integer row per sample. Sim-time jumps
   between events, so a "tick" fires when the clock has reached or passed
   the next due time and stamps the row with the actual clock — fully
   deterministic for a deterministic schedule. *)

type t = {
  interval : int;
  mutable columns : string array;
  mutable probe : (unit -> int array) option;
  mutable rows : (int * int array) list; (* newest first *)
  mutable nrows : int;
  mutable next_at : int;
}

let create ?(interval = 100) () =
  if interval <= 0 then invalid_arg "Sampler.create: interval must be positive";
  { interval; columns = [||]; probe = None; rows = []; nrows = 0; next_at = 0 }

let set_probe t ~columns f =
  t.columns <- Array.of_list columns;
  t.probe <- Some f

let sample t ~now =
  match t.probe with
  | None -> ()
  | Some f ->
      t.rows <- (now, f ()) :: t.rows;
      t.nrows <- t.nrows + 1

let tick t ~now =
  if now >= t.next_at then begin
    sample t ~now;
    t.next_at <- now + t.interval
  end

let rows t = List.rev t.rows

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (at, vals) ->
      Buffer.add_string buf (Printf.sprintf "{\"t\":%d" at);
      Array.iteri
        (fun i v ->
          let col = if i < Array.length t.columns then t.columns.(i)
            else Printf.sprintf "col%d" i
          in
          Buffer.add_string buf
            (Printf.sprintf ",\"%s\":%d" (Metrics.json_escape col) v))
        vals;
      Buffer.add_string buf "}\n")
    (rows t);
  Buffer.add_string buf
    (Printf.sprintf "{\"series\":{\"rows\":%d,\"interval\":%d}}\n" t.nrows
       t.interval);
  Buffer.contents buf
