let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* A label block "{k="v",...}", or "" when there are no labels. [extra]
   appends a trailing label (histograms' le="..."). *)
let label_block ?extra labels =
  let pairs =
    List.map
      (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
      labels
    @ match extra with None -> [] | Some (k, v) -> [ Printf.sprintf "%s=\"%s\"" k v ]
  in
  match pairs with [] -> "" | _ -> "{" ^ String.concat "," pairs ^ "}"

let render t =
  let buf = Buffer.create 2048 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun (s : Metrics.sample) ->
      let name = s.Metrics.s_name in
      if not (Hashtbl.mem seen_header name) then begin
        Hashtbl.add seen_header name ();
        if s.Metrics.s_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" name (escape_help s.Metrics.s_help));
        let kind =
          match s.Metrics.s_kind with
          | `Counter -> "counter"
          | `Gauge -> "gauge"
          | `Histogram -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
      end;
      let labels = s.Metrics.s_labels in
      match s.Metrics.s_value with
      | Metrics.Counter_v v | Metrics.Gauge_v v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (label_block labels) v)
      | Metrics.Histogram_v { sum; count; buckets } ->
          List.iter
            (fun (bound, cum) ->
              let le =
                if bound = max_int then "+Inf" else string_of_int bound
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (label_block ~extra:("le", le) labels)
                   cum))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %d\n" name (label_block labels) sum);
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (label_block labels) count))
    (Metrics.snapshot t);
  Buffer.contents buf
