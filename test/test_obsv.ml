(* Tests for the telemetry subsystem: metrics registry semantics, label
   cardinality, Prometheus escaping, span JSONL round-trips, and the
   zero-allocation guarantee on the hot path. *)

open Obsv

let check = Alcotest.check

(* ------------------------------ counters ------------------------------ *)

let counter_tests =
  [
    Alcotest.test_case "starts at zero, inc and add" `Quick (fun () ->
        let r = Metrics.create () in
        let c = Metrics.counter r "t_counter_basic" in
        check Alcotest.int "zero" 0 (Metric_value.counter r "t_counter_basic");
        Metrics.inc c;
        Metrics.inc c;
        Metrics.add c 40;
        check Alcotest.int "42" 42 (Metric_value.counter r "t_counter_basic"));
    Alcotest.test_case "add rejects negative" `Quick (fun () ->
        let r = Metrics.create () in
        let c = Metrics.counter r "t_counter_neg" in
        Alcotest.check_raises "neg"
          (Invalid_argument "Metrics.add: counters only go up") (fun () ->
            Metrics.add c (-1)));
    Alcotest.test_case "re-registration returns same handle" `Quick (fun () ->
        let r = Metrics.create () in
        let a = Metrics.counter r ~labels:[ ("k", "v") ] "t_counter_idem" in
        let b = Metrics.counter r ~labels:[ ("k", "v") ] "t_counter_idem" in
        Metrics.inc a;
        Metrics.inc b;
        check Alcotest.int "shared" 2
          (Metric_value.counter r ~labels:[ ("k", "v") ] "t_counter_idem"));
    Alcotest.test_case "memo resolves once per registry, the same counters"
      `Quick (fun () ->
        let resolved = ref 0 in
        let handles =
          Metrics.memo (fun r ->
              incr resolved;
              Metrics.counter r ~labels:[ ("k", "v") ] "t_counter_memo")
        in
        let r1 = Metrics.create () and r2 = Metrics.create () in
        let h1 = handles r1 in
        check Alcotest.bool "same counter as a fresh lookup" true
          (h1 == Metrics.counter r1 ~labels:[ ("k", "v") ] "t_counter_memo");
        check Alcotest.bool "a hit returns it again" true (handles r1 == h1);
        check Alcotest.int "resolved once" 1 !resolved;
        let h2 = handles r2 in
        check Alcotest.bool "a fresh registry gets its own counter" true
          (h2 != h1
          && h2 == Metrics.counter r2 ~labels:[ ("k", "v") ] "t_counter_memo");
        Metrics.inc h1;
        Metrics.add h2 5;
        check Alcotest.int "r1 counts its own" 1
          (Metric_value.counter r1 ~labels:[ ("k", "v") ] "t_counter_memo");
        check Alcotest.int "r2 counts its own" 5
          (Metric_value.counter r2 ~labels:[ ("k", "v") ] "t_counter_memo");
        Metrics.reset r1;
        let h1' = handles r1 in
        check Alcotest.bool "back on r1: the same counter, reset in place" true
          (h1' == h1
          && h1' == Metrics.counter r1 ~labels:[ ("k", "v") ] "t_counter_memo");
        check Alcotest.int "zeroed" 0
          (Metric_value.counter r1 ~labels:[ ("k", "v") ] "t_counter_memo"));
    Alcotest.test_case "label order does not split children" `Quick (fun () ->
        let r = Metrics.create () in
        let a =
          Metrics.counter r ~labels:[ ("x", "1"); ("y", "2") ] "t_counter_ord"
        in
        let b =
          Metrics.counter r ~labels:[ ("y", "2"); ("x", "1") ] "t_counter_ord"
        in
        Metrics.inc a;
        Metrics.inc b;
        check Alcotest.int "canonical" 2
          (Metric_value.counter r ~labels:[ ("x", "1"); ("y", "2") ] "t_counter_ord"));
    Alcotest.test_case "kind mismatch raises" `Quick (fun () ->
        let r = Metrics.create () in
        ignore (Metrics.counter r "t_kind_clash");
        Alcotest.check_raises "gauge over counter"
          (Invalid_argument
             "Metrics: t_kind_clash re-registered as gauge (was counter)")
          (fun () -> ignore (Metrics.gauge r "t_kind_clash")));
    Alcotest.test_case "bad names rejected" `Quick (fun () ->
        let r = Metrics.create () in
        Alcotest.check_raises "leading digit"
          (Invalid_argument "Metrics: invalid metric name \"9lives\"")
          (fun () -> ignore (Metrics.counter r "9lives")));
  ]

(* ------------------------------- gauges ------------------------------- *)

let gauge_tests =
  [
    Alcotest.test_case "set and add both directions" `Quick (fun () ->
        let r = Metrics.create () in
        let g = Metrics.gauge r "t_gauge" in
        Metrics.set g 10;
        Metrics.gauge_add g 5;
        Metrics.gauge_add g (-12);
        check Alcotest.int "3" 3 (Metric_value.gauge r "t_gauge"));
  ]

(* ----------------------------- histograms ----------------------------- *)

let histogram_tests =
  [
    Alcotest.test_case "observe fills cumulative buckets" `Quick (fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r ~buckets:[| 10; 100 |] "t_hist" in
        List.iter (Metrics.observe h) [ 1; 10; 11; 1000 ];
        let count, sum, buckets = Metric_value.histogram r "t_hist" in
        check Alcotest.int "count" 4 count;
        check Alcotest.int "sum" 1022 sum;
        check
          Alcotest.(list (pair int int))
          "buckets"
          [ (10, 2); (100, 3); (max_int, 4) ]
          buckets);
    Alcotest.test_case "bucket layout mismatch raises" `Quick (fun () ->
        let r = Metrics.create () in
        ignore (Metrics.histogram r ~buckets:[| 1; 2 |] "t_hist_layout");
        Alcotest.check_raises "layout"
          (Invalid_argument
             "Metrics: t_hist_layout re-registered with different buckets")
          (fun () ->
            ignore (Metrics.histogram r ~buckets:[| 1; 3 |] "t_hist_layout")));
    Alcotest.test_case "default buckets are strictly increasing" `Quick
      (fun () ->
        let r = Metrics.create () in
        ignore (Metrics.histogram r "t_hist_default");
        let _, _, buckets = Metric_value.histogram r "t_hist_default" in
        let b = Array.of_list (List.map fst buckets) in
        check Alcotest.int "21 bounds and +Inf" 22 (Array.length b);
        Array.iteri
          (fun i v -> if i > 0 then check Alcotest.bool "incr" true (v > b.(i - 1)))
          b);
  ]

(* --------------------------- cardinality cap --------------------------- *)

(* distinct label sets a family keeps before its overflow child *)
let cardinality_cap = 64

let cardinality_tests =
  [
    Alcotest.test_case "past the cap lands in the overflow child" `Quick
      (fun () ->
        let r = Metrics.create () in
        for i = 1 to cardinality_cap + 10 do
          let c =
            Metrics.counter r
              ~labels:[ ("id", string_of_int i) ]
              "t_cardinality"
          in
          Metrics.inc c
        done;
        let samples =
          List.filter
            (fun s -> s.Metrics.s_name = "t_cardinality")
            (Metrics.snapshot r)
        in
        (* cap distinct children plus one shared overflow child *)
        check Alcotest.int "children" (cardinality_cap + 1)
          (List.length samples);
        let overflow =
          List.find
            (fun s -> List.mem_assoc "overflow" s.Metrics.s_labels)
            samples
        in
        (match overflow.Metrics.s_value with
        | Metrics.Counter_v v -> check Alcotest.int "overflowed" 10 v
        | _ -> Alcotest.fail "overflow child is not a counter");
        check Alcotest.string "marker" "true"
          (List.assoc "overflow" overflow.Metrics.s_labels));
  ]

(* --------------------------- prometheus text --------------------------- *)

let prometheus_tests =
  [
    Alcotest.test_case "label escaping" `Quick (fun () ->
        (* the sample line of a counter labelled [v] *)
        let exposed v =
          let r = Metrics.create () in
          ignore (Metrics.counter r ~labels:[ ("k", v) ] "t_escape");
          List.find
            (fun l -> String.starts_with ~prefix:"t_escape{" l)
            (String.split_on_char '\n' (Prometheus.render r))
        in
        check Alcotest.string "backslash" {|t_escape{k="a\\b"} 0|}
          (exposed {|a\b|});
        check Alcotest.string "quote" {|t_escape{k="a\"b"} 0|} (exposed {|a"b|});
        check Alcotest.string "newline" {|t_escape{k="a\nb"} 0|}
          (exposed "a\nb"));
    Alcotest.test_case "exposition carries escaped label values" `Quick
      (fun () ->
        let r = Metrics.create () in
        let c =
          Metrics.counter r
            ~labels:[ ("path", "a\\b\"c\nd") ]
            ~help:"tricky" "t_promtext"
        in
        Metrics.inc c;
        let text = Prometheus.render r in
        let expected = {|t_promtext{path="a\\b\"c\nd"} 1|} in
        let found =
          String.split_on_char '\n' text |> List.exists (String.equal expected)
        in
        if not found then
          Alcotest.failf "missing %S in:\n%s" expected text);
    Alcotest.test_case "histogram exposition shape" `Quick (fun () ->
        let r = Metrics.create () in
        let h = Metrics.histogram r ~buckets:[| 5 |] ~help:"h" "t_promhist" in
        Metrics.observe h 3;
        Metrics.observe h 9;
        let text = Prometheus.render r in
        List.iter
          (fun line ->
            let found =
              String.split_on_char '\n' text |> List.exists (String.equal line)
            in
            if not found then Alcotest.failf "missing %S in:\n%s" line text)
          [
            "# TYPE t_promhist histogram";
            {|t_promhist_bucket{le="5"} 1|};
            {|t_promhist_bucket{le="+Inf"} 2|};
            "t_promhist_sum 12";
            "t_promhist_count 2";
          ]);
    Alcotest.test_case "help text printed once per family" `Quick (fun () ->
        let r = Metrics.create () in
        ignore (Metrics.counter r ~labels:[ ("a", "1") ] ~help:"x" "t_once");
        ignore (Metrics.counter r ~labels:[ ("a", "2") ] ~help:"x" "t_once");
        let text = Prometheus.render r in
        let headers =
          String.split_on_char '\n' text
          |> List.filter (fun l -> l = "# TYPE t_once counter")
        in
        check Alcotest.int "one TYPE line" 1 (List.length headers));
  ]

(* ------------------------- minimal JSON parser ------------------------- *)
(* Just enough JSON to round-trip the exporters' output without a JSON
   dependency: objects, arrays, strings (with escapes), ints, null, bools. *)

type json =
  | J_null
  | J_bool of bool
  | J_int of int
  | J_string of string
  | J_list of json list
  | J_obj of (string * json) list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'u' ->
              (* only ever produced for control chars by our exporters *)
              advance ();
              let hex = String.sub s !pos 4 in
              pos := !pos + 3;
              Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ hex)))
          | _ -> fail "bad escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while match peek () with Some '0' .. '9' -> true | _ -> false do
      advance ()
    done;
    if !pos = start then fail "expected number";
    J_int (int_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          J_list [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                J_list (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some '"' -> J_string (parse_string ())
    | Some 'n' -> literal "null" J_null
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some _ -> parse_int ()
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let obj_field o k =
  match o with
  | J_obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing field %S" k)
  | _ -> Alcotest.fail "not an object"

(* -------------------------------- spans -------------------------------- *)

(* the collector's spans as parsed JSONL rows, in start order *)
let span_rows t =
  Span.to_jsonl t |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map parse_json

let span_tests =
  [
    Alcotest.test_case "lifecycle and accessors" `Quick (fun () ->
        let t = Span.create () in
        let root = Span.start t ~name:"payment" ~at:0 () in
        let child =
          Span.start t ~parent:root ~attrs:[ ("pid", "3") ] ~name:"leg" ~at:5 ()
        in
        (match span_rows t with
        | [ _; c ] ->
            check Alcotest.bool "running" true
              (obj_field c "status" = J_string "running");
            check Alcotest.bool "open" true (obj_field c "end" = J_null)
        | _ -> Alcotest.fail "expected two spans");
        Span.finish ~status:"ok" ~at:9 child;
        Span.finish ~status:"commit" ~at:12 root;
        match span_rows t with
        | [ r; c ] ->
            check Alcotest.bool "parent" true
              (obj_field c "parent" = obj_field r "id");
            check Alcotest.bool "closed" true (obj_field c "end" = J_int 9);
            check Alcotest.bool "one root" true (obj_field r "parent" = J_null)
        | _ -> Alcotest.fail "expected two spans");
    Alcotest.test_case "double finish raises" `Quick (fun () ->
        let t = Span.create () in
        let s = Span.start t ~name:"x" ~at:0 () in
        Span.finish ~at:1 s;
        Alcotest.check_raises "twice"
          (Invalid_argument "Span.finish: span already finished") (fun () ->
            Span.finish ~at:2 s));
    Alcotest.test_case "the default collector starts off; a soak leaves it empty"
      `Quick (fun () ->
        check Alcotest.bool "off at start-up" false (Span.capture Span.default);
        let s = Xchain.Chaos.soak ~runs:20 ~domains:1 ~seed:1 () in
        check Alcotest.int "every run counted" 20
          (s.Xchain.Chaos.commits + s.Xchain.Chaos.aborts + s.Xchain.Chaos.stuck
          + List.length s.Xchain.Chaos.violations);
        check Alcotest.string "no spans" "" (Span.to_jsonl Span.default));
    Alcotest.test_case "capture off records nothing" `Quick (fun () ->
        let t = Span.create () in
        Span.set_capture t false;
        let s = Span.start t ~name:"ghost" ~at:0 () in
        Span.finish ~at:1 s;
        check Alcotest.int "empty" 0 (List.length (span_rows t));
        Span.set_capture t true);
    Alcotest.test_case "jsonl round-trips line by line" `Quick (fun () ->
        let t = Span.create () in
        let root =
          Span.start t
            ~attrs:[ ("protocol", "sync"); ("note", "q\"uo\\te\nnl") ]
            ~name:"payment" ~at:0 ()
        in
        let child = Span.start t ~parent:root ~name:"leg" ~at:3 () in
        Span.finish ~status:"ok" ~at:8 child;
        Span.finish ~status:"commit" ~at:11 root;
        ignore (Span.start t ~name:"dangling" ~at:20 ());
        let lines =
          Span.to_jsonl t |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        check Alcotest.int "3 lines" 3 (List.length lines);
        let parsed = List.map parse_json lines in
        (match parsed with
        | [ r; c; d ] ->
            check Alcotest.string "root name" "payment"
              (match obj_field r "name" with
              | J_string s -> s
              | _ -> Alcotest.fail "name");
            (match obj_field r "parent" with
            | J_null -> ()
            | _ -> Alcotest.fail "root parent should be null");
            check Alcotest.string "escaped attr survives" "q\"uo\\te\nnl"
              (match obj_field (obj_field r "attrs") "note" with
              | J_string s -> s
              | _ -> Alcotest.fail "attr");
            (match (obj_field c "parent", obj_field r "id") with
            | J_int p, J_int id -> check Alcotest.int "link" id p
            | _ -> Alcotest.fail "ids");
            (match (obj_field d "end", obj_field d "status") with
            | J_null, J_string "running" -> ()
            | _ -> Alcotest.fail "running span must export end:null")
        | _ -> Alcotest.fail "expected 3 spans"));
    Alcotest.test_case "registry to_json parses" `Quick (fun () ->
        let r = Metrics.create () in
        Metrics.inc (Metrics.counter r ~labels:[ ("a", "b\"c") ] "t_json");
        Metrics.observe (Metrics.histogram r ~buckets:[| 2 |] "t_json_h") 1;
        match parse_json (Metrics.to_json r) with
        | J_obj [ ("metrics", J_list (_ :: _)) ] -> ()
        | _ -> Alcotest.fail "unexpected to_json shape");
  ]

(* --------------------------- causal recorder --------------------------- *)

let node c ~kind ~pid ~at ?trace ~label () =
  Causal.record c ~kind ~pid ~at ?trace ~label ()

(* a little payment history exercising every edge kind:

     n0 arrive --queue--> n1 admit --prog--> n2 send:G --msg--> n3 deliver:G
     --prog--> n4 timer_set --prog--> n5 crash --outage--> n6 recover
     n4 --timer--> n7 fire (also n6 --outage--> n7) --prog--> n8 send (sink)

   with delta = 100 the message gap of 120 splits 100 transit + 20 gst. *)
(* every edge, by destination node then insertion *)
let iter_edges c f =
  for dst = 0 to Causal.node_count c - 1 do
    List.iter (fun (kind, src) -> f ~kind ~src ~dst) (Causal.preds c dst)
  done

let build_history () =
  let c = Causal.create () in
  let n0 = node c ~kind:Causal.Note ~pid:0 ~at:0 ~trace:7 ~label:"arrive" () in
  let n1 = node c ~kind:Causal.Note ~pid:0 ~at:40 ~trace:7 ~label:"admit" () in
  Causal.add_edge c ~kind:Causal.Queue ~src:n0 ~dst:n1;
  let n2 = node c ~kind:Causal.Send ~pid:1 ~at:40 ~trace:7 ~label:"G" () in
  Causal.add_edge c ~kind:Causal.Program ~src:n1 ~dst:n2;
  let n3 =
    node c ~kind:Causal.Deliver ~pid:2 ~at:160 ~trace:7 ~label:"G" ()
  in
  Causal.add_edge c ~kind:Causal.Message ~src:n2 ~dst:n3;
  let n4 =
    node c ~kind:Causal.Timer_set ~pid:2 ~at:160 ~trace:7 ~label:"win" ()
  in
  Causal.add_edge c ~kind:Causal.Program ~src:n3 ~dst:n4;
  let n5 = node c ~kind:Causal.Crash ~pid:2 ~at:200 ~label:"crash" () in
  Causal.add_edge c ~kind:Causal.Program ~src:n4 ~dst:n5;
  let n6 = node c ~kind:Causal.Recover ~pid:2 ~at:260 ~label:"recover" () in
  Causal.add_edge c ~kind:Causal.Outage ~src:n5 ~dst:n6;
  let n7 =
    node c ~kind:Causal.Timer_fire ~pid:2 ~at:300 ~trace:7 ~label:"win" ()
  in
  Causal.add_edge c ~kind:Causal.Timer ~src:n4 ~dst:n7;
  Causal.add_edge c ~kind:Causal.Outage ~src:n6 ~dst:n7;
  let n8 = node c ~kind:Causal.Send ~pid:2 ~at:300 ~trace:7 ~label:"chi" () in
  Causal.add_edge c ~kind:Causal.Program ~src:n7 ~dst:n8;
  (c, n0, n8)

let causal_tests =
  [
    Alcotest.test_case "ids are consecutive, edges forward-only" `Quick
      (fun () ->
        let c = Causal.create () in
        let a = node c ~kind:Causal.Send ~pid:0 ~at:0 ~label:"a" () in
        let b = node c ~kind:Causal.Deliver ~pid:1 ~at:5 ~label:"a" () in
        check Alcotest.int "first id" 0 a;
        check Alcotest.int "second id" 1 b;
        Causal.add_edge c ~kind:Causal.Message ~src:a ~dst:b;
        check Alcotest.int "edges" 1 (Causal.edge_count c);
        let forbidden = [ (b, a); (a, a); (a, 5); (-1, b) ] in
        List.iter
          (fun (src, dst) ->
            match Causal.add_edge c ~kind:Causal.Program ~src ~dst with
            | () -> Alcotest.failf "edge %d->%d accepted" src dst
            | exception Invalid_argument _ -> ())
          forbidden);
    Alcotest.test_case "negative time rejected" `Quick (fun () ->
        let c = Causal.create () in
        match node c ~kind:Causal.Note ~pid:0 ~at:(-1) ~label:"x" () with
        | _ -> Alcotest.fail "negative at accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "acyclic by construction: ids topo-sort the graph"
      `Quick (fun () ->
        let c, _, _ = build_history () in
        (* every edge goes id-forward, so no cycle can exist *)
        iter_edges c (fun ~kind:_ ~src ~dst ->
            check Alcotest.bool "forward" true (src < dst));
        (* and times are non-decreasing along every edge *)
        iter_edges c (fun ~kind:_ ~src ~dst ->
            check Alcotest.bool "time monotone" true
              (Causal.time_of c src <= Causal.time_of c dst)));
    Alcotest.test_case "path_valid accepts edges, rejects jumps" `Quick
      (fun () ->
        let c, _, _ = build_history () in
        check Alcotest.bool "real path" true (Causal_path.valid c [ 0; 1; 2 ]);
        check Alcotest.bool "no edge 0->2" false (Causal_path.valid c [ 0; 2 ]);
        check Alcotest.bool "decreasing" false (Causal_path.valid c [ 2; 1 ]);
        check Alcotest.bool "singleton" true (Causal_path.valid c [ 3 ]);
        check Alcotest.bool "empty" true (Causal_path.valid c []));
    Alcotest.test_case "jsonl exporter round-trips" `Quick (fun () ->
        let c, _, _ = build_history () in
        let lines =
          Causal.to_jsonl c |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        check Alcotest.int "one line per node" (Causal.node_count c)
          (List.length lines);
        List.iteri
          (fun i line ->
            let j = parse_json line in
            (match obj_field j "id" with
            | J_int id -> check Alcotest.int "id in order" i id
            | _ -> Alcotest.fail "id");
            match obj_field j "preds" with
            | J_list ps ->
                check Alcotest.int "pred count" (List.length (Causal.preds c i))
                  (List.length ps)
            | _ -> Alcotest.fail "preds")
          lines);
    Alcotest.test_case "chrome exporter shape" `Quick (fun () ->
        let c, n0, n8 = build_history () in
        let start = Causal.time_of c n0 and stop = Causal.time_of c n8 in
        let out =
          Causal.to_chrome ~payments:[ ("pay#7", 7, start, stop, "committed") ]
            c
        in
        let j = parse_json out in
        (match obj_field j "displayTimeUnit" with
        | J_string "ms" -> ()
        | _ -> Alcotest.fail "displayTimeUnit");
        let events =
          match obj_field j "traceEvents" with
          | J_list es -> es
          | _ -> Alcotest.fail "traceEvents"
        in
        let ph e =
          match obj_field e "ph" with
          | J_string s -> s
          | _ -> Alcotest.fail "ph"
        in
        let count p = List.length (List.filter (fun e -> ph e = p) events) in
        check Alcotest.int "one instant per node" (Causal.node_count c)
          (count "i");
        (* one s/f pair per message edge *)
        let messages = ref 0 in
        iter_edges c (fun ~kind ~src:_ ~dst:_ ->
            if kind = Causal.Message then incr messages);
        check Alcotest.int "flow starts" !messages (count "s");
        check Alcotest.int "flow ends" !messages (count "f");
        check Alcotest.int "payment slice" 1 (count "X"));
    Alcotest.test_case "chrome export is deterministic" `Quick (fun () ->
        let c1, _, _ = build_history () and c2, _, _ = build_history () in
        check Alcotest.string "byte-identical" (Causal.to_chrome c1)
          (Causal.to_chrome c2));
  ]

(* ------------------------------- blame --------------------------------- *)

let blame_tests =
  [
    Alcotest.test_case "categories sum exactly to end-to-end latency" `Quick
      (fun () ->
        let c, n0, n8 = build_history () in
        let r = Obsv.Blame.attribute ~delta:100 c ~root:n0 ~sink:n8 in
        check Alcotest.bool "rooted" true r.Blame.rooted;
        check Alcotest.int "total" 300 r.Blame.total;
        check Alcotest.bool "invariant" true (Blame.check r);
        check Alcotest.bool "path is real" true (Causal_path.valid c r.Blame.path);
        let cat name = List.assoc name r.Blame.by_category in
        check Alcotest.int "queueing" 40 (cat Blame.Queueing);
        check Alcotest.int "transit" 100 (cat Blame.Transit);
        check Alcotest.int "gst" 20 (cat Blame.Gst_wait);
        check Alcotest.int "timeout" 0 (cat Blame.Timeout);
        check Alcotest.int "downtime" 100 (cat Blame.Downtime);
        check Alcotest.int "processing" 40 (cat Blame.Processing);
        check Alcotest.int "external" 0 (cat Blame.External);
        check Alcotest.int "trace from sink" 7 r.Blame.trace);
    Alcotest.test_case "no delta: whole message gap is transit" `Quick
      (fun () ->
        let c, n0, n8 = build_history () in
        let r = Blame.attribute c ~root:n0 ~sink:n8 in
        check Alcotest.int "transit"
          120
          (List.assoc Blame.Transit r.Blame.by_category);
        check Alcotest.int "gst" 0 (List.assoc Blame.Gst_wait r.Blame.by_category);
        check Alcotest.bool "still exact" true (Blame.check r));
    Alcotest.test_case "queue edge outranks a later program edge" `Quick
      (fun () ->
        let c = Causal.create () in
        let a = node c ~kind:Causal.Note ~pid:0 ~at:0 ~label:"root" () in
        let b = node c ~kind:Causal.Note ~pid:1 ~at:50 ~label:"noise" () in
        Causal.add_edge c ~kind:Causal.Program ~src:a ~dst:b;
        let s = node c ~kind:Causal.Note ~pid:1 ~at:60 ~label:"sink" () in
        Causal.add_edge c ~kind:Causal.Program ~src:b ~dst:s;
        Causal.add_edge c ~kind:Causal.Queue ~src:a ~dst:s;
        let r = Blame.attribute c ~root:a ~sink:s in
        check Alcotest.(list int) "skips the noise" [ a; s ] r.Blame.path;
        check Alcotest.int "queueing" 60
          (List.assoc Blame.Queueing r.Blame.by_category));
    Alcotest.test_case "walk that exits history is cut as external" `Quick
      (fun () ->
        let c = Causal.create () in
        let before =
          node c ~kind:Causal.Note ~pid:0 ~at:0 ~label:"pre-history" ()
        in
        let root = node c ~kind:Causal.Note ~pid:1 ~at:10 ~label:"root" () in
        let sink = node c ~kind:Causal.Note ~pid:0 ~at:50 ~label:"sink" () in
        Causal.add_edge c ~kind:Causal.Program ~src:before ~dst:sink;
        let r = Blame.attribute c ~root ~sink in
        check Alcotest.bool "not rooted" false r.Blame.rooted;
        check Alcotest.int "external gap" 40
          (List.assoc Blame.External r.Blame.by_category);
        check Alcotest.int "total still exact" 40 r.Blame.total;
        check Alcotest.bool "invariant" true (Blame.check r));
    Alcotest.test_case "degenerate root = sink" `Quick (fun () ->
        let c = Causal.create () in
        let a = node c ~kind:Causal.Note ~pid:0 ~at:5 ~label:"x" () in
        let r = Blame.attribute c ~root:a ~sink:a in
        check Alcotest.int "zero total" 0 r.Blame.total;
        check Alcotest.bool "rooted" true r.Blame.rooted;
        check Alcotest.bool "invariant" true (Blame.check r));
    Alcotest.test_case "sink before root rejected" `Quick (fun () ->
        let c, n0, n8 = build_history () in
        match Blame.attribute c ~root:n8 ~sink:n0 with
        | _ -> Alcotest.fail "accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "aggregate totals and p99 tail" `Quick (fun () ->
        let c, n0, n8 = build_history () in
        let slow = Blame.attribute ~delta:100 c ~root:n0 ~sink:n8 in
        let fast = Blame.attribute c ~root:2 ~sink:3 in
        let a = Blame.aggregate [ fast; slow ] in
        check Alcotest.int "payments" 2 a.Blame.payments;
        check Alcotest.int "grand total"
          (fast.Blame.total + slow.Blame.total)
          a.Blame.agg_total;
        check Alcotest.int "tail of 2 is 1" 1 a.Blame.tail_count;
        check Alcotest.int "tail is the slow one" slow.Blame.total
          a.Blame.tail_total;
        List.iter
          (fun (cat, gap) ->
            check Alcotest.int "category adds up"
              (gap + List.assoc cat slow.Blame.by_category)
              (List.assoc cat a.Blame.agg_by_category))
          fast.Blame.by_category);
    Alcotest.test_case "json exporters parse" `Quick (fun () ->
        let c, n0, n8 = build_history () in
        let r = Blame.attribute ~delta:100 c ~root:n0 ~sink:n8 in
        (match parse_json (Blame.report_to_json r) with
        | J_obj kvs ->
            check Alcotest.bool "has path" true (List.mem_assoc "path" kvs);
            check Alcotest.bool "has by_category" true
              (List.mem_assoc "by_category" kvs)
        | _ -> Alcotest.fail "report_to_json");
        match parse_json (Blame.agg_to_json (Blame.aggregate [ r ])) with
        | J_obj kvs ->
            check Alcotest.bool "has tail" true (List.mem_assoc "tail" kvs)
        | _ -> Alcotest.fail "agg_to_json");
  ]

(* ------------------------- span <-> causal links ------------------------ *)

let span_link_tests =
  [
    Alcotest.test_case "trace/root_event exported only when linked" `Quick
      (fun () ->
        let t = Span.create () in
        let linked =
          Span.start t ~trace_id:7 ~root_event:42 ~name:"pay" ~at:0 ()
        in
        let plain = Span.start t ~name:"pay" ~at:0 () in
        Span.finish ~status:"commit" ~at:5 linked;
        Span.finish ~status:"commit" ~at:5 plain;
        match
          Span.to_jsonl t |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
          |> List.map parse_json
        with
        | [ l; p ] ->
            (match (obj_field l "trace", obj_field l "root_event") with
            | J_int 7, J_int 42 -> ()
            | _ -> Alcotest.fail "linked fields");
            check Alcotest.bool "plain row has no trace field" false
              (match p with
              | J_obj kvs -> List.mem_assoc "trace" kvs
              | _ -> true)
        | _ -> Alcotest.fail "expected two spans");
  ]

(* ------------------------------ profiler ------------------------------- *)

(* A deterministic fake host clock: strictly monotonic, 3 "ns" per read,
   so even wall-time attributions are exactly reproducible across runs. *)
let fake_clock () =
  let t = ref 0 in
  fun () ->
    t := !t + 3;
    !t

type ping = Ping of int

(* A two-process ping-pong with one timer firing and (optionally) a
   crash/recover pair: the smallest engine that exercises all four
   dispatch kinds. Returned unrun so callers can bracket {!Sim.Engine.run}
   with their own measurements. *)
let mk_pingpong ?prof ?(rounds = 40) ?(crash = true) ~seed () =
  let network =
    Sim.Network.create
      (Sim.Network.Synchronous { delta = 10 })
      (Sim.Rng.create ~seed:(seed + 1))
  in
  let e =
    Sim.Engine.create ~tag_of:(fun (Ping _) -> "ping") ~network ?prof ~seed ()
  in
  let handlers =
    {
      Sim.Engine.on_start =
        (fun ctx ->
          if Sim.Engine.pid ctx = 0 then begin
            Sim.Engine.send ctx ~dst:1 (Ping rounds);
            Sim.Engine.set_timer_after ctx ~after:5000 ~label:"stop"
          end);
      on_receive =
        (fun ctx ~src (Ping n) ->
          if n > 0 then Sim.Engine.send ctx ~dst:src (Ping (n - 1)));
      on_timer = (fun _ ~label:_ -> ());
    }
  in
  ignore (Sim.Engine.add_process e ~label:"left" handlers);
  ignore (Sim.Engine.add_process e ~label:"right" handlers);
  if crash then Sim.Engine.schedule_crash e ~pid:1 ~at:2000 ~recover_at:2500 ();
  e

let run_pingpong ?prof ?rounds ?crash ~seed () =
  let e = mk_pingpong ?prof ?rounds ?crash ~seed () in
  ignore (Sim.Engine.run e);
  e

let fresh_prof () =
  Prof.create ~now_ns:(fake_clock ()) ~metrics:(Metrics.create ()) ()

let site_fingerprint s =
  Printf.sprintf "%d/%s/%s:%d:%dw:%dns" s.Prof.s_trace s.Prof.s_label
    (Prof.kind_name s.Prof.s_kind)
    s.Prof.s_count s.Prof.s_alloc_words s.Prof.s_wall_ns

let prof_tests =
  [
    Alcotest.test_case "per-site sums reconcile with engine totals" `Quick
      (fun () ->
        let prof = fresh_prof () in
        let e = run_pingpong ~prof ~seed:5 () in
        let dequeued = Sim.Engine.events_processed e in
        let s = Prof.sites prof in
        let sum f = List.fold_left (fun a x -> a + f x) 0 s in
        let count = sum (fun x -> x.Prof.s_count) in
        let wall = sum (fun x -> x.Prof.s_wall_ns) in
        let alloc = sum (fun x -> x.Prof.s_alloc_words) in
        check Alcotest.int "every dequeued event profiled" dequeued count;
        (* wall/alloc epsilon: the run loop's own pop/peek/bookkeeping is
           outside the enter/leave bracket, so site sums can only fall
           short of the run totals, never exceed them. *)
        let run_wall, run_alloc = Prof.run_totals prof in
        check Alcotest.bool "site wall <= run wall" true (wall <= run_wall);
        check Alcotest.bool "site alloc <= run alloc" true (alloc <= run_alloc);
        let kinds =
          List.sort_uniq compare (List.map (fun x -> x.Prof.s_kind) s)
        in
        check Alcotest.int "all four dispatch kinds attributed" 4
          (List.length kinds);
        let labels =
          List.sort_uniq compare (List.map (fun x -> x.Prof.s_label) s)
        in
        check
          Alcotest.(list string)
          "role labels as interned" [ "left"; "right" ] labels);
    Alcotest.test_case "metrics counters mirror the site counts" `Quick
      (fun () ->
        let m = Metrics.create () in
        let prof = Prof.create ~now_ns:(fake_clock ()) ~metrics:m () in
        let e = run_pingpong ~prof ~seed:5 () in
        let by_kind k =
          Metric_value.counter m ~labels:[ ("kind", k) ] "xchain_prof_dispatch_total"
        in
        check Alcotest.int "dispatch counters sum to events"
          (Sim.Engine.events_processed e)
          (by_kind "deliver" + by_kind "timer" + by_kind "crash"
         + by_kind "recover");
        check Alcotest.int "one crash" 1 (by_kind "crash");
        check Alcotest.int "one recovery" 1 (by_kind "recover"));
    Alcotest.test_case "identical runs profile identically" `Quick (fun () ->
        let go () =
          let prof = fresh_prof () in
          ignore (run_pingpong ~prof ~seed:7 ());
          List.map site_fingerprint (Prof.sites prof)
        in
        (* warm-up triggers any one-time lazy runtime initialisation so
           the measured pair sees identical allocation behaviour *)
        ignore (go ());
        check Alcotest.(list string) "counts, words and fake-clock wall" (go ())
          (go ()));
    Alcotest.test_case "profiling does not change the schedule" `Quick
      (fun () ->
        let off = run_pingpong ~seed:3 () in
        let on_ = run_pingpong ~prof:(fresh_prof ()) ~seed:3 () in
        check Alcotest.int "same event count"
          (Sim.Engine.events_processed off)
          (Sim.Engine.events_processed on_));
    Alcotest.test_case "label intern saturates into one overflow slot" `Quick
      (fun () ->
        let p = Prof.create ~metrics:(Metrics.create ()) () in
        let label_cap = 1024 in
        let ids =
          List.init (label_cap + 10) (fun i ->
              Prof.intern p (Printf.sprintf "l%d" i))
        in
        check Alcotest.bool "ids bounded" true
          (List.for_all (fun id -> id >= 0 && id < label_cap) ids);
        check Alcotest.int "distinct ids capped" label_cap
          (List.length (List.sort_uniq compare ids));
        let overflow = List.nth ids (label_cap - 1) in
        check Alcotest.bool "tail shares the overflow id" true
          (List.for_all
             (fun i -> List.nth ids i = overflow)
             (List.init 10 (fun k -> label_cap - 1 + k)));
        check Alcotest.int "early names keep their ids" 0 (Prof.intern p "l0"));
    Alcotest.test_case "json and collapsed exports are well-formed" `Quick
      (fun () ->
        let prof = fresh_prof () in
        let e = run_pingpong ~prof ~seed:9 () in
        (match parse_json (String.trim (Prof.to_json prof)) with
        | J_obj [ ("profile", profile) ] -> (
            (match
               (obj_field profile "events", Sim.Engine.events_processed e)
             with
            | J_int n, m -> check Alcotest.int "events field" m n
            | _ -> Alcotest.fail "events field missing");
            match obj_field profile "sites" with
            | J_list sites ->
                check Alcotest.int "one object per site"
                  (List.length (Prof.sites prof))
                  (List.length sites)
            | _ -> Alcotest.fail "sites array missing")
        | _ -> Alcotest.fail "profile envelope");
        let lines =
          String.split_on_char '\n' (Prof.to_collapsed prof)
          |> List.filter (fun l -> l <> "")
        in
        check Alcotest.int "one stack per site"
          (List.length (Prof.sites prof))
          (List.length lines);
        List.iter
          (fun l ->
            match String.split_on_char ' ' l with
            | [ stack; weight ] ->
                check Alcotest.int "payment;process;kind frames" 3
                  (List.length (String.split_on_char ';' stack));
                check Alcotest.bool "positive weight" true
                  (int_of_string weight >= 1)
            | _ -> Alcotest.failf "bad collapsed line %S" l)
          lines);
  ]

(* ------------------------------ allocation ----------------------------- *)

let allocation_tests =
  [
    Alcotest.test_case "engine dispatch with profiling off stays in budget"
      `Quick (fun () ->
        (* warm up: first run pays one-time lazy initialisation *)
        ignore (run_pingpong ~rounds:100 ~crash:false ~seed:11 ());
        let e = mk_pingpong ~rounds:2000 ~crash:false ~seed:11 () in
        let before = Gc.minor_words () in
        ignore (Sim.Engine.run e);
        let delta = int_of_float (Gc.minor_words () -. before) in
        let per_event = delta / Sim.Engine.events_processed e in
        (* send + trace records are handler-attributable work; the budget
           bounds the whole loop so a profiling hook that started
           allocating on the off path would blow straight through it. *)
        if per_event > 128 then
          Alcotest.failf "unprofiled dispatch allocates %d words/event"
            per_event);
    Alcotest.test_case "hot path allocates zero words" `Quick (fun () ->
        let r = Metrics.create () in
        let c = Metrics.counter r "t_alloc_c" in
        let g = Metrics.gauge r "t_alloc_g" in
        let h = Metrics.histogram r "t_alloc_h" in
        (* warm up: first calls may trigger lazy init inside the runtime *)
        Metrics.inc c;
        Metrics.set g 1;
        Metrics.observe h 1;
        let before = Gc.minor_words () in
        for i = 1 to 10_000 do
          Metrics.inc c;
          Metrics.add c 2;
          Metrics.set g i;
          Metrics.gauge_add g (-1);
          Metrics.observe h i
        done;
        let after = Gc.minor_words () in
        let delta = int_of_float (after -. before) in
        (* 50k instrument operations; allow a few words of slack for the
           Gc.minor_words calls themselves. *)
        if delta > 16 then
          Alcotest.failf "hot path allocated %d words over 50k ops" delta);
  ]

let () =
  Alcotest.run "obsv"
    [
      ("counters", counter_tests);
      ("gauges", gauge_tests);
      ("histograms", histogram_tests);
      ("cardinality", cardinality_tests);
      ("prometheus", prometheus_tests);
      ("spans", span_tests);
      ("causal", causal_tests);
      ("blame", blame_tests);
      ("span-links", span_link_tests);
      ("profiler", prof_tests);
      ("allocation", allocation_tests);
    ]
