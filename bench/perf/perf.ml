(* xchain perf benchmark.

     perf.exe [--seed N] [--out FILE]
         all five workloads, interleaved round-robin: per workload 20
         untraced rounds (reference job, set-up probe, untraced sample),
         then 3 profiled samples, then one unit-call sample; prints every
         metric and writes them, with the spans, to FILE
     perf.exe --workload NAME --seconds S --trace 0|1 [--seed N] [--out FILE]
         one workload for about S seconds; the last stdout line is one
         JSON object with the end-to-end (--trace 0) or per-layer
         (--trace 1) metrics
     perf.exe --compare BASE.json NEW.json
         each end-to-end value of NEW against BASE and its bound

   Every sample runs in a fresh child process (this binary, re-executed)
   and the parent never runs two at once, so a sample has one domain and
   the host to itself apart from the waiting parent. *)

open Perf_lib
open Catalogue

let now_ns = Sample.now_ns
let fi = float_of_int

type span = {
  name : string;
  parent : string;
  start : int;
  stop : int;
  count : int;
}

type sample = {
  metrics : (string * float) list;
  spans : span list;
  failures : string list;
}

(* --- children --- *)

let parse_line s line =
  match String.split_on_char ' ' line with
  | [ "m"; name; v ] -> (
      match float_of_string_opt v with
      | Some v -> { s with metrics = (name, v) :: s.metrics }
      | None -> { s with failures = ("unreadable value: " ^ line) :: s.failures })
  | [ "s"; name; parent; start; stop; count ] -> (
      match
        (int_of_string_opt start, int_of_string_opt stop, int_of_string_opt count)
      with
      | Some start, Some stop, Some count ->
          { s with spans = { name; parent; start; stop; count } :: s.spans }
      | _ -> { s with failures = ("unreadable span: " ^ line) :: s.failures })
  | "f" :: reason -> { s with failures = String.concat " " reason :: s.failures }
  | _ -> { s with failures = ("unreadable line: " ^ line) :: s.failures }

let spawn args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read s =
    match input_line ic with
    | line -> read (parse_line s line)
    | exception End_of_file -> s
  in
  let s = read { metrics = []; spans = []; failures = [] } in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let s =
    match status with
    | Unix.WEXITED 0 -> s
    | Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c ->
        {
          s with
          failures =
            Printf.sprintf "child %s exited with status %d"
              (String.concat " " args) c
            :: s.failures;
        }
  in
  { metrics = List.rev s.metrics; spans = List.rev s.spans; failures = List.rev s.failures }

(* --- per-workload accumulation --- *)

type acc = {
  w : workload;
  mutable runs : sample list;
  mutable setups : sample list;
  mutable refs : sample list;
  mutable profs : sample list;
  mutable twins : sample list;
  mutable units : sample list;
}

let child ?(args = []) acc ~seed mode =
  let s =
    spawn
      ([ "--child"; mode; "--workload"; acc.w.name; "--seed"; string_of_int seed ]
      @ args)
  in
  match mode with
  | "run" -> acc.runs <- acc.runs @ [ s ]
  | "setup" -> acc.setups <- acc.setups @ [ s ]
  | "reference" -> acc.refs <- acc.refs @ [ s ]
  | "prof" -> acc.profs <- acc.profs @ [ s ]
  | "twin" -> acc.twins <- acc.twins @ [ s ]
  | "units" -> acc.units <- acc.units @ [ s ]
  | _ -> invalid_arg mode

let values name samples =
  List.filter_map (fun s -> List.assoc_opt name s.metrics) samples

let or_zero f = function [] -> 0. | vs -> f vs
let median_of name samples = or_zero Stats.median (values name samples)

let monitored acc =
  match acc.w.target with Load { monitored; _ } -> monitored | Soak _ -> false

(* One untraced round: the reference job, a set-up probe and an untraced
   sample, back to back, so the reference job sees the host the samples
   saw. *)
let round acc ~seed =
  child acc ~seed "reference";
  child acc ~seed "setup";
  child acc ~seed "run"

(* A profiled sample, and for a monitored workload its unmonitored twin. *)
let profile acc ~seed =
  child acc ~seed "prof";
  if monitored acc then child acc ~seed "twin"

(* The unit-call sample runs its queue at the profiled runs' median depth. *)
let unit_calls acc ~seed =
  let depth = int_of_float (median_of "event_queue.depth_p50" acc.profs) in
  child acc ~seed "units" ~args:[ "--depth"; string_of_int depth ]

(* --- results --- *)

(* [vals] are the samples; [value] is what the run reports. *)
type result = { metric : metric; vals : float list; value : float }

let of_samples metric vals = { metric; vals; value = or_zero Stats.median vals }

(* How much slower than the reference host this host ran the reference
   job next to the samples: [pick] of the jobs' times over
   {!Catalogue.reference_s}. *)
let slowdown acc pick =
  or_zero pick (values "reference_s" acc.refs) /. reference_s

(* Host-adjusted timings: scaled by the slowdown to what they read on the
   reference host. Throughput pairs the best quarter of the untraced
   samples with the best quarter of the reference jobs; set-up time pairs
   their medians. The other end-to-end metrics are deterministic and
   report their median. *)
let end_to_end_results acc =
  List.map
    (fun ({ metric; _ } : bounded) ->
      match metric.m_name with
      | "committed_per_s" ->
          let vals = values metric.m_name acc.runs in
          let best = or_zero (Stats.best_quarter ~better:Higher) vals in
          let slow = slowdown acc (Stats.best_quarter ~better:Lower) in
          { metric; vals; value = best *. slow }
      | "setup_s" ->
          let vals = values metric.m_name acc.setups in
          let slow = slowdown acc Stats.median in
          { metric; vals; value = Sample.ratio (or_zero Stats.median vals) slow }
      | name -> of_samples metric (values name acc.runs))
    end_to_end

(* The reference jobs' times, printed and written beside the end-to-end
   values they adjusted. *)
let reference_row acc =
  of_samples (m "reference_s" "s" Lower) (values "reference_s" acc.refs)

let per_layer_results acc =
  let derived name =
    let prof_call = median_of "prof.call_s" acc.profs in
    match name with
    | "prof.overhead_ratio" ->
        Some [ Sample.ratio prof_call (median_of "wall_s" acc.runs) ]
    | "monitor.ns_per_event" | "monitor.explained_frac" ->
        if acc.twins = [] then Some [ 0. ]
        else
          let per_event =
            median_of "prof.loop_ns_per_event" acc.profs
            -. median_of "prof.loop_ns_per_event" acc.twins
          in
          if name = "monitor.ns_per_event" then Some [ per_event ]
          else
            (* how much of the wall gap to the twin the loop-time gap explains *)
            let gap_ns = (prof_call -. median_of "prof.call_s" acc.twins) *. 1e9 in
            Some
              [
                Sample.ratio (per_event *. median_of "prof.events" acc.profs) gap_ns;
              ]
    | _ -> None
  in
  List.map
    (fun metric ->
      let vals =
        match derived metric.m_name with
        | Some v -> v
        | None -> (
            match values metric.m_name acc.units with
            | [] -> values metric.m_name acc.profs
            | v -> v)
      in
      of_samples metric vals)
    per_layer

(* Failed self-checks: every child's, results left empty, and any
   deterministic metric that differs between untraced samples. *)
let failures acc results =
  let all = acc.runs @ acc.setups @ acc.refs @ acc.profs @ acc.twins @ acc.units in
  List.concat_map (fun s -> s.failures) all
  @ List.filter_map
      (fun r ->
        if r.vals = [] then Some ("no samples for " ^ r.metric.m_name) else None)
      results
  @ List.filter_map
      (fun name ->
        match List.sort_uniq Float.compare (values name acc.runs) with
        | [] | [ _ ] -> None
        | vs ->
            Some
              (Printf.sprintf "%s differs across untraced samples: %s" name
                 (String.concat ", " (List.map (Printf.sprintf "%.17g") vs))))
      deterministic
  |> List.map (fun f -> acc.w.name ^ ": " ^ f)

let sum name samples = List.fold_left ( +. ) 0. (values name samples)

(* Operations attempted and failed across the end-to-end calls: untraced
   samples for the end-to-end view, profiled ones too for the layer view. *)
let attempted_failed acc ~traced =
  let calls = if traced then acc.runs @ acc.profs else acc.runs in
  (int_of_float (sum "ops" calls), int_of_float (sum "failed" calls))

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let pp_table title results ~bounds =
  Printf.printf "\n%s\n" title;
  Printf.printf "  %-34s %-13s %14s %14s %14s %14s %4s %s\n" "metric" "unit"
    "value" "median" "q1" "q3" "n" (if bounds then "bound" else "");
  List.iter
    (fun r ->
      match r.vals with
      | [] -> Printf.printf "  %-34s %-13s %14s\n" r.metric.m_name r.metric.m_unit "-"
      | vs ->
          let q1, q3 = Stats.quartiles vs in
          let bound =
            if bounds then
              match
                List.find_opt
                  (fun (b : bounded) -> b.metric.m_name = r.metric.m_name)
                  end_to_end
              with
              | Some b -> Printf.sprintf "%.0f%%" (100. *. b.bound)
              | None -> ""
            else ""
          in
          Printf.printf "  %-34s %-13s %14.6g %14.6g %14.6g %14.6g %4d %s\n"
            r.metric.m_name r.metric.m_unit r.value (Stats.median vs) q1 q3
            (List.length vs) bound)
    results

let summary_json buf acc results =
  List.iter
    (fun r ->
      match r.vals with
      | [] -> ()
      | vs ->
          let q1, q3 = Stats.quartiles vs in
          if Buffer.length buf > 0 then Buffer.add_string buf ",\n";
          Printf.bprintf buf
            "{\"workload\":%S,\"metric\":%S,\"unit\":%S,\"value\":%s,\"median\":%s,\"q1\":%s,\"q3\":%s,\"n\":%d}"
            acc.w.name r.metric.m_name r.metric.m_unit (num r.value)
            (num (Stats.median vs)) (num q1) (num q3) (List.length vs))
    results

(* Spans of every profiled sample, times relative to the sample's start. *)
let spans_json buf acc =
  List.iteri
    (fun k s ->
      let t0 = List.fold_left (fun m sp -> min m sp.start) max_int s.spans in
      List.iter
        (fun sp ->
          if Buffer.length buf > 0 then Buffer.add_string buf ",\n";
          Printf.bprintf buf
            "{\"workload\":%S,\"sample\":%d,\"name\":%S,\"parent\":%S,\"start_ns\":%d,\"end_ns\":%d,\"count\":%d}"
            acc.w.name k sp.name
            (if sp.parent = "-" then "" else sp.parent)
            (sp.start - t0) (sp.stop - t0) sp.count)
        s.spans)
    acc.profs

let write_results ~out ~seed accs ~e2e ~layers =
  let summary = Buffer.create 4096 and spans = Buffer.create 4096 in
  List.iter
    (fun acc ->
      if e2e then
        summary_json summary acc (end_to_end_results acc @ [ reference_row acc ]);
      if layers then begin
        summary_json summary acc (per_layer_results acc);
        spans_json spans acc
      end)
    accs;
  (match Filename.dirname out with
  | "." -> ()
  | dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755);
  let oc = open_out out in
  Printf.fprintf oc "{\"seed\":%d,\n\"summary\":[\n%s],\n\"spans\":[\n%s]}\n" seed
    (Buffer.contents summary) (Buffer.contents spans);
  close_out oc

(* --- modes --- *)

let fresh w =
  { w; runs = []; setups = []; refs = []; profs = []; twins = []; units = [] }

let full ~seed ~out =
  let accs = List.map fresh workloads in
  for _ = 1 to 20 do
    List.iter (round ~seed) accs
  done;
  for _ = 1 to 3 do
    List.iter (profile ~seed) accs
  done;
  List.iter (unit_calls ~seed) accs;
  let bad = ref [] in
  List.iter
    (fun acc ->
      let e2e = end_to_end_results acc and layers = per_layer_results acc in
      pp_table (acc.w.name ^ " — end to end (untraced)")
        (e2e @ [ reference_row acc ])
        ~bounds:true;
      pp_table (acc.w.name ^ " — per layer (profiled + unit calls)") layers
        ~bounds:false;
      bad := !bad @ failures acc (e2e @ layers))
    accs;
  write_results ~out ~seed accs ~e2e:true ~layers:true;
  Printf.printf "\nresults: %s\n" out;
  List.iter (Printf.printf "self-check failed: %s\n") !bad;
  !bad = []

(* Samples until [seconds] would be exceeded by one more round, with a
   floor of [min_rounds]; [round] runs one round of children. *)
let timed ~seconds ~min_rounds ~reserve round =
  let t0 = now_ns () in
  let elapsed () = fi (now_ns () - t0) /. 1e9 in
  let rec go i last =
    if i < min_rounds || elapsed () +. last +. reserve <= fi seconds then begin
      let r0 = now_ns () in
      round ();
      go (i + 1) (fi (now_ns () - r0) /. 1e9)
    end
  in
  go 0 0.

let single ~w ~seed ~seconds ~trace ~out =
  let acc = fresh w in
  let results =
    if trace then begin
      (* the unit-call sample takes about a second at the end *)
      timed ~seconds ~min_rounds:1 ~reserve:1.5 (fun () ->
          child acc ~seed "run";
          profile acc ~seed);
      unit_calls acc ~seed;
      per_layer_results acc
    end
    else begin
      timed ~seconds ~min_rounds:5 ~reserve:0. (fun () -> round acc ~seed);
      end_to_end_results acc
    end
  in
  pp_table
    (Printf.sprintf "%s — %s" w.name
       (if trace then "per layer (profiled + unit calls)" else "end to end (untraced)"))
    (if trace then results else results @ [ reference_row acc ])
    ~bounds:(not trace);
  write_results ~out ~seed [ acc ] ~e2e:(not trace) ~layers:trace;
  let bad = failures acc results in
  List.iter (Printf.eprintf "self-check failed: %s\n") bad;
  let attempted, failed = attempted_failed acc ~traced:trace in
  let metrics =
    List.map
      (fun r ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.metric.m_name
          (num r.value)
          r.metric.m_unit)
      results
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (bad = []) attempted failed (String.concat ", " metrics);
  bad = []

(* --- compare --- *)

let read_summary file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> (
        match
          Scanf.sscanf line
            "{\"workload\":%S,\"metric\":%S,\"unit\":%S,\"value\":%f,"
            (fun w m _ v -> ((w, m), v))
        with
        | entry -> go (entry :: acc)
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> go acc)
    | exception End_of_file -> List.rev acc
  in
  let entries = go [] in
  close_in ic;
  entries

(* NEW's end-to-end values against BASE's, each within its bound. One
   file per side judges one run each; a claim needs the paired runs the
   README describes. *)
let compare_files base_file new_file =
  let base = read_summary base_file and next = read_summary new_file in
  Printf.printf "  %-14s %-24s %14s %14s %9s %7s  %s\n" "workload" "metric" "base"
    "new" "worse by" "bound" "verdict";
  let regressed = ref 0 in
  List.iter
    (fun ((w, m), b) ->
      match
        ( List.find_opt (fun (e : bounded) -> e.metric.m_name = m) end_to_end,
          List.assoc_opt (w, m) next )
      with
      | Some ({ metric; bound } : bounded), Some n ->
          let ok = Stats.within_bound ~better:metric.better ~bound ~base:b n in
          if not ok then incr regressed;
          Printf.printf "  %-14s %-24s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n" w m b n
            (100. *. Stats.worse_by ~better:metric.better ~base:b n)
            (100. *. bound)
            (if ok then "ok" else "REGRESSED")
      | _ -> ())
    base;
  !regressed = 0

(* --- command line --- *)

let () =
  let workload = ref "all"
  and seed = ref 1
  and seconds = ref 25
  and trace = ref 0
  and out = ref ""
  and child_mode = ref ""
  and depth = ref 1
  and compare = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measuring time of one workload (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE results JSON (default bench/perf/results/...)");
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun f -> compare := [ f ]);
            Arg.String (fun f -> compare := !compare @ [ f ]);
          ],
        "BASE NEW compare two results files" );
      ("--child", Arg.Set_string child_mode, "MODE (internal) run one sample");
      ("--depth", Arg.Set_int depth, "N (internal) queue depth for unit calls");
    ]
  in
  let usage = "perf.exe [--workload NAME --seconds S --trace 0|1] [--seed N] [--out FILE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("perf: " ^ msg);
    exit 2
  in
  let find name =
    match find_workload name with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %s (one of: %s)" name
             (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads)))
  in
  let ok =
    match (!child_mode, !compare) with
    | "", [ base; next ] -> compare_files base next
    | "", _ ->
        if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
        if !seconds < 1 then die "--seconds must be positive";
        let default name = Printf.sprintf "bench/perf/results/%s-seed%d.json" name !seed in
        if !workload = "all" then
          full ~seed:!seed ~out:(if !out = "" then default "all" else !out)
        else
          let w = find !workload in
          single ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
            ~out:
              (if !out = "" then default (Printf.sprintf "%s-trace%d" w.name !trace)
               else !out)
    | mode, _ ->
        let w = find !workload in
        (match mode with
        | "run" -> Sample.run ~seed:!seed w
        | "setup" -> Sample.setup ~seed:!seed w
        | "reference" -> Sample.reference ()
        | "prof" -> Sample.profiled ~seed:!seed ~twin:false w
        | "twin" -> Sample.profiled ~seed:!seed ~twin:true w
        | "units" -> Sample.units ~seed:!seed ~depth:!depth w
        | m -> die ("unknown child mode " ^ m));
        true
  in
  exit (if ok then 0 else 1)
