(* Chunked work-sharing over Domain.spawn.

   Determinism: the only shared scheduling state is [next], an atomic
   cursor over the job space. Slice boundaries are [k*chunk, (k+1)*chunk)
   for k = 0.. — a function of (jobs, chunk) alone — and every result
   lands at [results.(job_id)], so the merged output is independent of
   which domain ran what and in which order.

   Memory model: each results slot is written by exactly one domain
   (slices are disjoint) and read by the caller only after every worker
   has been joined; Domain.join establishes the happens-before edge, so
   plain array stores suffice. The same argument covers the per-domain
   stats arrays, where each domain writes only its own index. Each domain
   adds its slices' minor and promoted words to two atomics, as
   [Gc.minor_words] and [Gc.counters] count the calling domain's only.
   Progress
   reporting reads the [completed] atomic and runs entirely on the
   calling domain. *)

type failure = { job : int; message : string; backtrace : string }
type 'a outcome = ('a, failure) result

type cost = {
  wall_ns : int;
  domains : int;
  minor_words : int;
  promoted_words : int;
  top_heap_words : int;
}

type stats = {
  jobs : int;
  failed : int;
  chunk : int;
  per_domain_jobs : int array;
  per_domain_chunks : int array;
  per_domain_busy_ns : int array;
  cost : cost;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* words the calling domain has promoted so far *)
let promoted () =
  let _, p, _ = Gc.counters () in
  int_of_float p

(* A window's peak major heap: the largest [heap_words] the runtime
   reports at the end of a major cycle within the window (a GC alarm),
   or at its close. The runtime samples [heap_words] only at the end of a
   cycle, so when none ended in the window the close reads the heap
   itself with [Gc.stat]: a walk of the heap, which only a window too
   short to end a cycle pays, on a heap that small. *)
type peak = { mutable heap : int; mutable cycles : int }
type window = { t0 : int; peak : peak; alarm : Gc.alarm }

let open_window () =
  let peak = { heap = 0; cycles = 0 } in
  let sample () =
    peak.cycles <- peak.cycles + 1;
    peak.heap <- max peak.heap (Gc.quick_stat ()).Gc.heap_words
  in
  { t0 = now_ns (); peak; alarm = Gc.create_alarm sample }

(* the one place a cost is taken: a window opened by [open_window]
   closes here *)
let close w ~domains ~minor_words ~promoted_words =
  Gc.delete_alarm w.alarm;
  let heap =
    if w.peak.cycles = 0 then (Gc.stat ()).Gc.heap_words
    else (Gc.quick_stat ()).Gc.heap_words
  in
  {
    wall_ns = max 1 (now_ns () - w.t0);
    domains;
    minor_words;
    promoted_words;
    top_heap_words = max w.peak.heap heap;
  }

let measure f =
  let w = open_window () in
  let m0 = Gc.minor_words () and p0 = promoted () in
  match f () with
  | v ->
      let minor_words = int_of_float (Gc.minor_words () -. m0) in
      (v, close w ~domains:1 ~minor_words ~promoted_words:(promoted () - p0))
  | exception e ->
      (* a window that raises takes its alarm down with it *)
      let bt = Printexc.get_raw_backtrace () in
      Gc.delete_alarm w.alarm;
      Printexc.raise_with_backtrace e bt

let no_cost =
  {
    wall_ns = 0;
    domains = 0;
    minor_words = 0;
    promoted_words = 0;
    top_heap_words = 0;
  }

let add_cost a b =
  let wall_ns = a.wall_ns + b.wall_ns and domains = max a.domains b.domains in
  let minor_words = a.minor_words + b.minor_words in
  let promoted_words = a.promoted_words + b.promoted_words in
  let top_heap_words = max a.top_heap_words b.top_heap_words in
  { wall_ns; domains; minor_words; promoted_words; top_heap_words }

let timing_json ~events c =
  let per_event words = float_of_int words /. float_of_int (max 1 events) in
  Printf.sprintf
    ",\"timing\":{\"wall_ns\":%d,\"domains\":%d,\"events_per_sec\":%d,\"top_heap_mb\":%.1f,\"minor_words_per_event\":%.1f,\"promoted_words_per_event\":%.2f}"
    c.wall_ns c.domains
    (int_of_float (float_of_int events /. (float_of_int (max 1 c.wall_ns) /. 1e9)))
    (float_of_int (c.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
    (per_event c.minor_words) (per_event c.promoted_words)

let recommended_domains () = Domain.recommended_domain_count ()

let default_domains () =
  match Sys.getenv_opt "XCHAIN_FLEET_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> recommended_domains ())
  | None -> recommended_domains ()

let run_job f results failed i =
  match f i with
  | v -> results.(i) <- Ok v
  | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Atomic.incr failed;
      results.(i) <- Error { job = i; message = Printexc.to_string e; backtrace }

(* One domain's life: claim slices off [next] until the job space is
   exhausted. [tick] runs after every slice — the calling domain uses it
   to surface progress; spawned workers pass a no-op. *)
let worker ~f ~results ~failed ~next ~completed ~chunk ~jobs ~tick ~idx
    ~per_domain_jobs ~per_domain_chunks ~per_domain_busy_ns ~minor ~promo =
  let jobs_here = ref 0 and chunks_here = ref 0 and busy = ref 0 in
  let continue = ref true in
  while !continue do
    let start = Atomic.fetch_and_add next chunk in
    if start >= jobs then continue := false
    else begin
      let stop = min jobs (start + chunk) in
      let t0 = now_ns () and m0 = Gc.minor_words () and p0 = promoted () in
      for i = start to stop - 1 do
        run_job f results failed i
      done;
      busy := !busy + (now_ns () - t0);
      ignore (Atomic.fetch_and_add minor (int_of_float (Gc.minor_words () -. m0)));
      ignore (Atomic.fetch_and_add promo (promoted () - p0));
      jobs_here := !jobs_here + (stop - start);
      incr chunks_here;
      ignore (Atomic.fetch_and_add completed (stop - start));
      tick ()
    end
  done;
  per_domain_jobs.(idx) <- !jobs_here;
  per_domain_chunks.(idx) <- !chunks_here;
  per_domain_busy_ns.(idx) <- !busy

let record_metrics m s =
  let open Obsv.Metrics in
  inc (counter m ~help:"Fleet batches executed" "xchain_fleet_batches_total");
  set
    (gauge m ~help:"Domains used by the most recent fleet batch"
       "xchain_fleet_domains")
    s.cost.domains;
  add
    (counter m ~help:"Fleet jobs finished, by outcome"
       ~labels:[ ("status", "ok") ]
       "xchain_fleet_jobs_total")
    (s.jobs - s.failed);
  add
    (counter m ~help:"Fleet jobs finished, by outcome"
       ~labels:[ ("status", "failed") ]
       "xchain_fleet_jobs_total")
    s.failed;
  Array.iteri
    (fun d jobs_d ->
      let labels = [ ("domain", string_of_int d) ] in
      add
        (counter m ~labels ~help:"Fleet jobs completed, per domain"
           "xchain_fleet_domain_jobs_total")
        jobs_d;
      add
        (counter m ~labels
           ~help:
             "Slices claimed beyond a domain's first — work stolen off the \
              shared queue"
           "xchain_fleet_steals_total")
        (max 0 (s.per_domain_chunks.(d) - 1));
      add
        (counter m ~labels ~help:"Milliseconds spent inside jobs, per domain"
           "xchain_fleet_busy_ms_total")
        (s.per_domain_busy_ns.(d) / 1_000_000);
      add
        (counter m ~labels
           ~help:"Milliseconds of batch wall time spent not running jobs"
           "xchain_fleet_idle_ms_total")
        (max 0 ((s.cost.wall_ns - s.per_domain_busy_ns.(d)) / 1_000_000)))
    s.per_domain_jobs

let run ?domains ?chunk ?on_progress ?(metrics = Obsv.Metrics.default) ~jobs f =
  if jobs < 0 then invalid_arg "Fleet.run: jobs must be >= 0";
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Fleet.run: domains must be >= 1"
    | None -> default_domains ()
  in
  let domains = max 1 (min domains jobs) in
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Fleet.run: chunk must be >= 1"
    | None -> max 1 (jobs / (domains * 8))
  in
  let results =
    Array.make jobs (Error { job = -1; message = "unscheduled"; backtrace = "" })
  in
  let failed = Atomic.make 0 in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let per_domain_jobs = Array.make domains 0 in
  let per_domain_chunks = Array.make domains 0 in
  let per_domain_busy_ns = Array.make domains 0 in
  let minor = Atomic.make 0 and promo = Atomic.make 0 in
  let progress =
    match on_progress with
    | None -> fun _ -> ()
    | Some cb ->
        let last = ref (-1) in
        fun c ->
          if c > !last then begin
            last := c;
            cb ~completed:c ~total:jobs
          end
  in
  let w = open_window () in
  let spawned =
    Array.init (domains - 1) (fun k ->
        Domain.spawn (fun () ->
            worker ~f ~results ~failed ~next ~completed ~chunk ~jobs
              ~tick:(fun () -> ())
              ~idx:(k + 1) ~per_domain_jobs ~per_domain_chunks
              ~per_domain_busy_ns ~minor ~promo))
  in
  (* The calling domain is worker 0 and the only one that reports
     progress: between its own slices, and then while draining the
     stragglers. *)
  worker ~f ~results ~failed ~next ~completed ~chunk ~jobs
    ~tick:(fun () -> progress (Atomic.get completed))
    ~idx:0 ~per_domain_jobs ~per_domain_chunks ~per_domain_busy_ns ~minor
    ~promo;
  while Atomic.get completed < jobs do
    progress (Atomic.get completed);
    Domain.cpu_relax ()
  done;
  Array.iter Domain.join spawned;
  progress jobs;
  let stats =
    {
      jobs;
      failed = Atomic.get failed;
      chunk;
      per_domain_jobs;
      per_domain_chunks;
      per_domain_busy_ns;
      cost =
        close w ~domains ~minor_words:(Atomic.get minor)
          ~promoted_words:(Atomic.get promo);
    }
  in
  record_metrics metrics stats;
  (results, stats)
