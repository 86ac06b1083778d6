type kind = Deliver | Timer | Crash | Recover

let kind_index = function Deliver -> 0 | Timer -> 1 | Crash -> 2 | Recover -> 3
let kind_name = function
  | Deliver -> "deliver"
  | Timer -> "timer"
  | Crash -> "crash"
  | Recover -> "recover"

let kinds = [| Deliver; Timer; Crash; Recover |]
let label_cap = 1024

type acc = {
  mutable a_count : int;
  mutable a_wall_ns : int;
  mutable a_alloc_words : int;
}

type t = {
  now_ns : unit -> int;
  labels : (string, int) Hashtbl.t;
  mutable label_names : string array; (* id -> name, intern order *)
  mutable nlabels : int;
  accs : (int, acc) Hashtbl.t; (* packed (trace, label, kind) -> acc *)
  mutable t0 : int;
  mutable w0 : int;
  mutable run_t0 : int;
  mutable run_w0 : int;
  mutable run_wall_ns : int;
  mutable run_alloc_words : int;
  mutable nevents : int;
  m_queue_depth : Metrics.histogram;
  m_dispatch : Metrics.counter array; (* per kind *)
  m_alloc : Metrics.counter array; (* per kind *)
}

(* Unboxed external: reading the allocation counter does not allocate. *)
let minor_words () = int_of_float (Gc.minor_words ())

let default_now_ns () = int_of_float (Sys.time () *. 1e9)

let create ?(now_ns = default_now_ns) ?(metrics = Metrics.default) () =
  let per_kind name help =
    Array.map
      (fun k ->
        Metrics.counter metrics ~help ~labels:[ ("kind", kind_name k) ] name)
      kinds
  in
  {
    now_ns;
    labels = Hashtbl.create 16;
    label_names = Array.make 16 "";
    nlabels = 0;
    accs = Hashtbl.create 64;
    t0 = 0;
    w0 = 0;
    run_t0 = 0;
    run_w0 = 0;
    run_wall_ns = 0;
    run_alloc_words = 0;
    nevents = 0;
    m_queue_depth =
      Metrics.histogram metrics
        ~help:"Event-queue depth sampled at each profiled dequeue"
        "xchain_prof_queue_depth";
    m_dispatch =
      per_kind "xchain_prof_dispatch_total" "Profiled dispatches by event kind";
    m_alloc =
      per_kind "xchain_prof_alloc_words_total"
        "Minor-heap words allocated inside dispatch, by event kind";
  }

let insert t name =
  let id = t.nlabels in
  let cap = Array.length t.label_names in
  if id >= cap then begin
    let nn = Array.make (Stdlib.max 16 (2 * cap)) "" in
    Array.blit t.label_names 0 nn 0 t.nlabels;
    t.label_names <- nn
  end;
  t.label_names.(id) <- name;
  t.nlabels <- t.nlabels + 1;
  Hashtbl.replace t.labels name id;
  id

let intern t name =
  match Hashtbl.find_opt t.labels name with
  | Some id -> id
  | None ->
      (* known names keep their ids forever; only {e new} names land in
         the shared last slot once the table is full — the same
         bounded-degradation policy as a Metrics family's label sets *)
      if t.nlabels < label_cap - 1 then insert t name
      else
        match Hashtbl.find_opt t.labels "overflow" with
        | Some id -> id
        | None -> insert t "overflow"

let observe_queue_depth t depth = Metrics.observe t.m_queue_depth depth

let enter t =
  t.w0 <- minor_words ();
  t.t0 <- t.now_ns ()

let key ~trace ~label ~kind =
  (((trace + 1) * label_cap) + label) * 4 + kind_index kind

let leave t ~label ~kind ~trace =
  let wall = t.now_ns () - t.t0 in
  let alloc = minor_words () - t.w0 in
  let label = if label < 0 then 0 else label in
  let k = key ~trace ~label ~kind in
  (match Hashtbl.find_opt t.accs k with
  | Some a ->
      a.a_count <- a.a_count + 1;
      a.a_wall_ns <- a.a_wall_ns + wall;
      a.a_alloc_words <- a.a_alloc_words + alloc
  | None ->
      Hashtbl.replace t.accs k
        { a_count = 1; a_wall_ns = wall; a_alloc_words = alloc });
  t.nevents <- t.nevents + 1;
  let ki = kind_index kind in
  Metrics.inc t.m_dispatch.(ki);
  if alloc > 0 then Metrics.add t.m_alloc.(ki) alloc

let run_begin t =
  t.run_w0 <- minor_words ();
  t.run_t0 <- t.now_ns ()

let run_end t =
  t.run_wall_ns <- t.run_wall_ns + (t.now_ns () - t.run_t0);
  t.run_alloc_words <- t.run_alloc_words + (minor_words () - t.run_w0)

(* --- views --- *)

type site = {
  s_trace : int;
  s_label : string;
  s_kind : kind;
  s_count : int;
  s_wall_ns : int;
  s_alloc_words : int;
}

let label_name t id =
  if id >= 0 && id < t.nlabels then t.label_names.(id) else "?"

let sites t =
  let all =
    Hashtbl.fold
      (fun k a l ->
        let kind = kinds.(k land 3) in
        let rest = k / 4 in
        let label = rest mod label_cap in
        let trace = (rest / label_cap) - 1 in
        ( k,
          {
            s_trace = trace;
            s_label = label_name t label;
            s_kind = kind;
            s_count = a.a_count;
            s_wall_ns = a.a_wall_ns;
            s_alloc_words = a.a_alloc_words;
          } )
        :: l)
      t.accs []
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) all)

let site_totals t =
  Hashtbl.fold
    (fun _ a (c, w, al) ->
      (c + a.a_count, w + a.a_wall_ns, al + a.a_alloc_words))
    t.accs (0, 0, 0)

let run_totals t = (t.run_wall_ns, t.run_alloc_words)

let payment_frame trace =
  if trace < 0 then "run" else Printf.sprintf "pay#%d" trace

let pp_top ?(n = 15) ppf t =
  let all = sites t in
  let ranked =
    List.sort
      (fun a b ->
        let c = compare b.s_wall_ns a.s_wall_ns in
        if c <> 0 then c
        else
          compare
            (a.s_trace, a.s_label, kind_index a.s_kind)
            (b.s_trace, b.s_label, kind_index b.s_kind))
      all
  in
  let _, total_wall, _ = site_totals t in
  Format.fprintf ppf "%-10s %-12s %-8s %10s %12s %10s %6s@."
    "payment" "process" "kind" "events" "wall_ns" "words/ev" "wall%";
  let rec take k = function
    | [] -> ()
    | _ when k = 0 -> ()
    | s :: rest ->
        let share =
          if total_wall = 0 then 0.0
          else 100.0 *. float_of_int s.s_wall_ns /. float_of_int total_wall
        in
        Format.fprintf ppf "%-10s %-12s %-8s %10d %12d %10.1f %5.1f%%@."
          (payment_frame s.s_trace) s.s_label (kind_name s.s_kind) s.s_count
          s.s_wall_ns
          (float_of_int s.s_alloc_words /. float_of_int s.s_count)
          share;
        take (k - 1) rest
  in
  take n ranked;
  let count, wall, alloc = site_totals t in
  let run_wall, run_alloc = run_totals t in
  Format.fprintf ppf
    "total: %d events over %d sites, %d ns, %d words (run loop: %d ns, %d words)@."
    count (List.length all) wall alloc run_wall run_alloc

let to_json t =
  let b = Buffer.create 4096 in
  let count, wall, alloc = site_totals t in
  let run_wall, run_alloc = run_totals t in
  Buffer.add_string b
    (Printf.sprintf "{\"profile\":{\"events\":%d,\"distinct_sites\":%d,"
       t.nevents (Hashtbl.length t.accs));
  Buffer.add_string b "\"sites\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"payment\":%d,\"label\":\"%s\",\"kind\":\"%s\",\"count\":%d,\"alloc_words\":%d,\"prof_timing\":{\"wall_ns\":%d}}"
           s.s_trace
           (Metrics.json_escape s.s_label)
           (kind_name s.s_kind) s.s_count s.s_alloc_words s.s_wall_ns))
    (sites t);
  Buffer.add_string b "],";
  Buffer.add_string b
    (Printf.sprintf
       "\"totals\":{\"count\":%d,\"alloc_words\":%d},\"run\":{\"alloc_words\":%d},\"prof_timing\":{\"wall_ns\":%d,\"run_wall_ns\":%d}}}"
       count alloc run_alloc wall run_wall);
  Buffer.add_char b '\n';
  Buffer.contents b

let to_collapsed t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%s;%s;%s %d\n" (payment_frame s.s_trace) s.s_label
           (kind_name s.s_kind)
           (Stdlib.max 1 s.s_wall_ns)))
    (sites t);
  Buffer.contents b
