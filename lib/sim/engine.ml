(* Pid-keyed process table. *)
module Pids = Int_table

type ('msg, 'obs) event =
  | Deliver of {
      src : int;
      dst : ('msg, 'obs) proc;
      msg : 'msg;
      sent_at : Sim_time.t;
      cause : int; (* trace seq of the [Sent] entry *)
    }
  | Fire of {
      owner : ('msg, 'obs) proc;
      label : string;
      cause : int; (* trace seq of the arming [Timer_set] entry *)
      deferred : bool; (* re-pushed to the owner's recovery by an outage *)
    }
  | Tick of { series : ('msg, 'obs) series; k : int; deferred : bool }
      (* the [k]-th timer of a series; only the next one is ever queued *)
  | Crash of { pid : int; recover_at : Sim_time.t option; label : string }
  | Recover of { pid : int; label : string }
      (* [label]: the profiler role charged while [pid] has no record *)

and ('msg, 'obs) handlers = {
  on_start : ('msg, 'obs) ctx -> unit;
  on_receive : ('msg, 'obs) ctx -> src:int -> 'msg -> unit;
  on_timer : ('msg, 'obs) ctx -> label:string -> unit;
}

(* A process record is also its handlers' context: every ctx operation
   reads the record it is given, with no pid lookup. *)
and ('msg, 'obs) proc = {
  engine : ('msg, 'obs) t;
  mutable self : int; (* a record re-registered by [reborn] takes a new pid *)
  mutable handlers : ('msg, 'obs) handlers;
      (* [silent] once retired: events still queued for a retired pid
         must not keep its handlers' state reachable *)
  mutable clock : Clock.t;
  mutable base : int;
      (* pid-translation offset: [send ~dst] resolves to [base + dst] and
         delivered [~src] is rebased the same way, so handlers written
         against a logical pid layout (e.g. one payment's Topology) can be
         instantiated many times in one engine at different offsets *)
  mutable proc_rng : Rng.t;
      (* [unsplit] until the process first draws (see [rng_of]) *)
  mutable armed : (string, Event_queue.handle) Hashtbl.t;
      (* the queue handle of each armed label's one Fire. Cancelling or
         re-arming a label removes that Fire from the queue, and a label
         leaves when its Fire pops, so every queued Fire is live. Until
         its first arming a process shares [unarmed] (see [set_timer]). *)
  mutable halted : bool;
  mutable host : host; (* [never_down] until the pid first crashes *)
  mutable prof_label : int; (* interned Prof label id, -1 when profiling is off *)
  mutable inbox : int; (* queued deliveries to this pid *)
  mutable queued : int; (* queued deliveries, firings and series ticks *)
  mutable ticking : int; (* series timers armed but not yet consumed *)
  mutable retired : bool; (* no handler may run again *)
}

and ('msg, 'obs) ctx = ('msg, 'obs) proc

(* A timer series: many timers armed at once, materialised in the queue
   one at a time under the sequence numbers they were armed with. *)
and ('msg, 'obs) series = {
  s_owner : ('msg, 'obs) proc;
  s_label : int -> string;
  mutable s_rest : Sim_time.t Seq.t; (* deadlines of the unqueued members *)
  s_clock : Clock.t;
  s_floor : Sim_time.t; (* arming time: no member fires earlier *)
  s_seq0 : int;
  s_set0 : int; (* trace seq of member 0's [Timer_set]; member k's is +k *)
}

(* A pid's crash state: part of its process record, and all the engine
   keeps of a pid without one (not born yet, or retired and dropped),
   which only crashes and recoveries reach. *)
and host = {
  mutable down : bool; (* crashed by fault injection, may recover *)
  mutable up_at : Sim_time.t option; (* scheduled reboot while down *)
}

(* Handles resolved once per registry (see [telemetry_handles]): the
   per-event updates below are plain integer stores (see lib/obsv), cheap
   enough to stay on at any scale. *)
and telemetry = {
  m_events : Obsv.Metrics.counter;
  m_sent : Obsv.Metrics.counter;
  m_delivered : Obsv.Metrics.counter;
  m_timers_set : Obsv.Metrics.counter;
  m_timers_fired : Obsv.Metrics.counter;
  m_timers_stale : Obsv.Metrics.counter;
  m_queue_depth : Obsv.Metrics.gauge;
  m_crashes : Obsv.Metrics.counter;
  m_recoveries : Obsv.Metrics.counter;
  m_procs_down : Obsv.Metrics.gauge;
  m_down_drops : Obsv.Metrics.counter;
  m_timers_deferred : Obsv.Metrics.counter;
  m_corrupt_drops : Obsv.Metrics.counter;
}

(* Runtime-verification hooks, bundled so the dispatch loop pays exactly
   one [option] match per event when neither is armed. *)
and watch = { mon : Obsv.Monitor.t option; samp : Obsv.Sampler.t option }

and ('msg, 'obs) t = {
  tag_of : 'msg -> string;
  mangle : ('msg -> Rng.t -> 'msg option) option;
  network : Network.t;
  sigma : Sim_time.t;
  root_rng : Rng.t; (* pid [k]'s stream is [Rng.split_nth root_rng k] *)
  queue : ('msg, 'obs) event Event_queue.t;
  procs : ('msg, 'obs) proc Pids.t;
      (* born processes, until retired and nothing is queued for them *)
  ghosts : host Pids.t; (* crash state of pids without a record *)
  mutable next_pid : int; (* one past the highest pid registered *)
  mutable pid_space : int; (* crashes may target pids below this *)
  mutable unstarted : ('msg, 'obs) proc list; (* added before [run] *)
  mutable unqueued_ticks : int; (* series timers not yet in the queue *)
  tr : ('msg, 'obs) Trace.t;
  mutable clock_now : Sim_time.t;
  mutable started : bool;
  tm : telemetry;
  prof : Obsv.Prof.t option;
  watch : watch option;
  mutable cur_trace : int; (* payment tag: a trace fold sets it *)
  mutable events : int; (* events dequeued over this engine's lifetime *)
}

let silent =
  {
    on_start = (fun _ -> ());
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let telemetry_handles =
  Obsv.Metrics.memo @@ fun reg ->
  let counter = Obsv.Metrics.counter reg in
  {
    m_events = counter ~help:"Events dequeued by the engine" "xchain_events_total";
    m_sent = counter ~help:"Messages sent" "xchain_messages_sent_total";
    m_delivered =
      counter ~help:"Messages delivered" "xchain_messages_delivered_total";
    m_timers_set = counter ~help:"Timers armed" "xchain_timers_set_total";
    m_timers_fired = counter ~help:"Timers fired live" "xchain_timers_fired_total";
    m_timers_stale =
      counter
        ~help:"Timer firings dropped (owner halted, or lost to a crash)"
        "xchain_timers_stale_total";
    m_queue_depth =
      Obsv.Metrics.gauge reg ~help:"Pending events in the engine queue"
        "xchain_event_queue_depth";
    m_crashes =
      counter ~help:"Processes taken down by fault injection"
        "xchain_crashes_total";
    m_recoveries =
      counter ~help:"Crashed processes that rebooted" "xchain_recoveries_total";
    m_procs_down =
      Obsv.Metrics.gauge reg ~help:"Processes currently down (crashed)"
        "xchain_procs_down";
    m_down_drops =
      counter ~help:"Deliveries discarded because the destination was down"
        "xchain_deliveries_dropped_down_total";
    m_timers_deferred =
      counter
        ~help:"Timer firings deferred to the owner's scheduled recovery"
        "xchain_timers_deferred_total";
    m_corrupt_drops =
      counter
        ~help:"Corrupted copies discarded for want of a message mangler"
        "xchain_corrupt_copies_dropped_total";
  }

let create ~tag_of ?mangle ~network ?(sigma = Sim_time.zero)
    ?(metrics = Obsv.Metrics.default) ?trace_capacity ?prof ?monitor
    ?sampler ~seed () =
  let watch =
    match (monitor, sampler) with
    | None, None -> None
    | mon, samp -> Some { mon; samp }
  in
  {
    tag_of;
    mangle;
    network;
    sigma;
    root_rng = Rng.create ~seed;
    queue = Event_queue.create ();
    procs = Pids.create 16;
    ghosts = Pids.create 1;
    next_pid = 0;
    pid_space = 0;
    unstarted = [];
    unqueued_ticks = 0;
    tr = Trace.create ?capacity:trace_capacity ();
    clock_now = Sim_time.zero;
    started = false;
    tm = telemetry_handles metrics;
    prof;
    watch;
    cur_trace = -1;
    events = 0;
  }

let fresh_host () = { down = false; up_at = None }

(* A process is born with these three shared placeholders and gets its own
   crash state, timer table and stream only once it crashes, arms a timer
   or draws, since most processes never crash and many never arm or draw.
   They are only ever read, and compared by identity, never written or
   advanced: engines on other domains share them. *)
let never_down = fresh_host ()
let unarmed : (string, Event_queue.handle) Hashtbl.t = Hashtbl.create 1
let unsplit = Rng.create ~seed:0

(* pid [k]'s stream is [Rng.split_nth root_rng k] whenever it is first
   drawn from, since [root_rng] never advances *)
let rng_of p =
  if p.proc_rng == unsplit then
    p.proc_rng <- Rng.split_nth p.engine.root_rng p.self;
  p.proc_rng

(* What a birth at [pid] checks and derives: the pid is free, the
   profiler label id, and the crash state (a pid crashed before its birth
   is born down). *)
let check_birth t ~fn ~base pid =
  if base < 0 then invalid_arg (fn ^ ": negative base");
  if pid < 0 then invalid_arg (fn ^ ": negative pid");
  if Pids.mem t.procs pid then invalid_arg (fn ^ ": pid in use")

let label_id t label =
  match t.prof with
  | None -> -1
  | Some p -> Obsv.Prof.intern p (match label with Some l -> l | None -> "proc")

let born_host t pid =
  if Pids.length t.ghosts = 0 then never_down
  else
    match Pids.find t.ghosts pid with
    | h ->
        Pids.remove t.ghosts pid;
        h
    | exception Not_found -> never_down

(* [p], born at its pid, joins the table and starts *)
let register t p =
  let pid = p.self in
  Pids.replace t.procs pid p;
  if pid >= t.next_pid then t.next_pid <- pid + 1;
  if pid >= t.pid_space then t.pid_space <- pid + 1;
  if t.started then p.handlers.on_start p
  else t.unstarted <- p :: t.unstarted

let add_process t ?(clock = Clock.perfect) ?(base = 0) ?label ?pid handlers =
  let pid = match pid with Some p -> p | None -> t.next_pid in
  check_birth t ~fn:"Engine.add_process" ~base pid;
  register t
    {
      engine = t;
      self = pid;
      handlers;
      clock;
      base;
      proc_rng = unsplit;
      armed = unarmed;
      halted = false;
      host = born_host t pid;
      prof_label = label_id t label;
      inbox = 0;
      queued = 0;
      ticking = 0;
      retired = false;
    };
  pid

let spent p = p.retired && p.queued = 0

(* Every field [add_process] sets is set again, so the record is what a
   birth at [pid] makes; only the table [armed] is kept, emptied. *)
let reborn t p ?(clock = Clock.perfect) ?(base = 0) ?label ~pid handlers =
  if p.engine != t then invalid_arg "Engine.reborn: a record of another engine";
  if not (spent p) then invalid_arg "Engine.reborn: the record is not dropped";
  check_birth t ~fn:"Engine.reborn" ~base pid;
  p.self <- pid;
  p.handlers <- handlers;
  p.clock <- clock;
  p.base <- base;
  p.proc_rng <- unsplit;
  if p.armed != unarmed then Hashtbl.clear p.armed;
  p.halted <- false;
  p.host <- born_host t pid;
  p.prof_label <- label_id t label;
  p.inbox <- 0;
  p.ticking <- 0;
  p.retired <- false;
  register t p

let record_summary p =
  Printf.sprintf
    "pid %d base %d clock %s rng %s armed %d halted %b host %s inbox %d \
     queued %d ticking %d retired %b"
    p.self p.base
    (if p.clock == Clock.perfect then "perfect" else "own")
    (if p.proc_rng == unsplit then "unsplit" else "split")
    (Hashtbl.length p.armed) p.halted
    (if p.host == never_down then "placeholder"
     else if p.host.down then "own, down"
     else "own, up")
    p.inbox p.queued p.ticking p.retired

let reserve_pids t n = if n > t.pid_space then t.pid_space <- n

let proc t pid =
  match Pids.find t.procs pid with
  | p -> p
  | exception Not_found -> invalid_arg "Engine: no process at this pid"

let record = proc
let trace t = t.tr
let now t = t.clock_now
let trace_tag t = t.cur_trace
let set_trace_tag t tag = t.cur_trace <- tag
let clock_of t pid = (proc t pid).clock
let is_halted t pid = (proc t pid).halted

(* the crash state of [pid], whether or not it has a record *)
let host_of t pid =
  match Pids.find t.procs pid with
  | p -> Some p.host
  | exception Not_found -> Pids.find_opt t.ghosts pid

let set_clock t ~pid clock = (proc t pid).clock <- clock

(* A retired record goes once nothing queued refers to it. *)
let drop_if_spent t p =
  if p.retired && p.queued = 0 then begin
    Pids.remove t.procs p.self;
    if p.host.down then Pids.replace t.ghosts p.self p.host
  end

let retire t pid =
  let p = proc t pid in
  p.retired <- true;
  p.handlers <- silent;
  drop_if_spent t p

let quiet t pid =
  let p = proc t pid in
  p.halted || (p.inbox = 0 && p.ticking = 0 && Hashtbl.length p.armed = 0)

let schedule_crash t ~pid ~at ?recover_at ?(label = "proc") () =
  if t.started then
    invalid_arg "Engine.schedule_crash: engine already running";
  if pid < 0 || pid >= t.pid_space then
    invalid_arg "Engine.schedule_crash: bad pid";
  (match recover_at with
  | Some r when Sim_time.(r <= at) ->
      invalid_arg "Engine.schedule_crash: recovery must follow the crash"
  | _ -> ());
  Event_queue.push t.queue ~time:at (Crash { pid; recover_at; label });
  match recover_at with
  | Some r when not (Sim_time.is_infinite r) ->
      Event_queue.push t.queue ~time:r (Recover { pid; label })
  | _ -> ()

(* --- ctx operations --- *)

let pid ctx = ctx.self - ctx.base
let halted ctx = ctx.halted
let local_now ctx = Clock.local_of_global ctx.clock ctx.engine.clock_now

(* Pending events, counting series timers not yet in the queue. *)
let queue_depth t = Event_queue.length t.queue + t.unqueued_ticks

let push_delivery t ~src ~(dst : _ proc) ~depart ~tag ~cause msg =
  let arrive =
    Network.delivery_time t.network ~send_time:depart ~src ~dst:dst.self ~tag
  in
  dst.inbox <- dst.inbox + 1;
  dst.queued <- dst.queued + 1;
  Event_queue.push t.queue ~time:arrive
    (Deliver { src; dst; msg; sent_at = t.clock_now; cause })

(* The fault injector decides how many copies the channel carries (none =
   dropped); each surviving copy draws its own delay, so duplicates still
   obey the per-link FIFO clamp. A plain recursion rather than [List.iter]
   over a closure, so a send allocates no closure. *)
let rec push_copies t p ~dst ~depart ~tag ~cause msg = function
  | [] -> ()
  | copy :: rest ->
      let src = p.self in
      (match (copy : Network.copy) with
      | Network.Intact -> push_delivery t ~src ~dst ~depart ~tag ~cause msg
      | Network.Corrupted -> (
          match t.mangle with
          | Some f -> (
              match f msg (rng_of p) with
              | Some damaged ->
                  push_delivery t ~src ~dst ~depart ~tag ~cause damaged
              | None -> Obsv.Metrics.inc t.tm.m_corrupt_drops)
          | None ->
              (* authenticated channels: an undetectably-corrupted payload
                 cannot be fabricated, so the receiver discards it — model
                 that as a drop at the network *)
              Obsv.Metrics.inc t.tm.m_corrupt_drops));
      push_copies t p ~dst ~depart ~tag ~cause msg rest

let send_resolved p ~dst msg =
  let t = p.engine in
  let q =
    match Pids.find t.procs dst with
    | q -> q
    | exception Not_found -> invalid_arg "Engine.send: bad destination"
  in
  let tag = t.tag_of msg in
  let compute =
    if Sim_time.equal t.sigma Sim_time.zero then Sim_time.zero
    else Rng.int_in (rng_of p) ~lo:0 ~hi:t.sigma
  in
  let depart = Sim_time.add t.clock_now compute in
  let cause = Trace.length t.tr in
  Trace.record t.tr (Sent { t = t.clock_now; src = p.self; dst; tag; msg });
  Obsv.Metrics.inc t.tm.m_sent;
  push_copies t p ~dst:q ~depart ~tag ~cause msg
    (Network.fate t.network ~send_time:depart ~src:p.self ~dst ~tag);
  Obsv.Metrics.set t.tm.m_queue_depth (queue_depth t)

let send ctx ~dst msg = send_resolved ctx ~dst:(ctx.base + dst) msg
let send_absolute ctx ~dst msg = send_resolved ctx ~dst msg

(* The trace entry and counter of one arming; returns the entry's seq. *)
let record_timer_set t p ~label ~deadline ~global_fire =
  let cause = Trace.length t.tr in
  Trace.record t.tr
    (Timer_set
       {
         t = t.clock_now;
         owner = p.self;
         label;
         local_deadline = deadline;
         global_fire;
       });
  Obsv.Metrics.inc t.tm.m_timers_set;
  cause

(* Take [label]'s queued Fire, if it has one, out of the queue; returns
   whether it had one. The label stays in [armed] for the caller to
   replace or remove. *)
let unqueue t p label =
  match Hashtbl.find p.armed label with
  | h ->
      Event_queue.remove t.queue h;
      p.queued <- p.queued - 1;
      true
  | exception Not_found -> false

let set_timer p ~deadline ~label =
  let t = p.engine in
  let global_fire = Clock.global_of_local p.clock deadline in
  (* never fire in the past: a deadline already reached fires "now" *)
  let global_fire = Sim_time.max global_fire t.clock_now in
  let cause = record_timer_set t p ~label ~deadline ~global_fire in
  let had = unqueue t p label in
  if not (Sim_time.is_infinite global_fire) then begin
    p.queued <- p.queued + 1;
    if p.armed == unarmed then p.armed <- Hashtbl.create 4;
    Hashtbl.replace p.armed label
      (Event_queue.push_removable t.queue ~time:global_fire
         (Fire { owner = p; label; cause; deferred = false }))
  end
  else if had then
    (* never fires: disarm any earlier arming of the label *)
    Hashtbl.remove p.armed label;
  Obsv.Metrics.set t.tm.m_queue_depth (queue_depth t)

let set_timer_after ctx ~after ~label =
  set_timer ctx ~deadline:(Sim_time.add (local_now ctx) after) ~label

let cancel_timer p ~label =
  let t = p.engine in
  if unqueue t p label then begin
    Hashtbl.remove p.armed label;
    Obsv.Metrics.set t.tm.m_queue_depth (queue_depth t)
  end

(* Queue series member [k] if its deadline is finite; returns whether it
   was queued. *)
let queue_tick t s k =
  match s.s_rest () with
  | Seq.Nil -> false
  | Seq.Cons (deadline, rest) ->
      let at =
        Sim_time.max (Clock.global_of_local s.s_clock deadline) s.s_floor
      in
      if Sim_time.is_infinite at then false
      else begin
        s.s_rest <- rest;
        s.s_owner.queued <- s.s_owner.queued + 1;
        Event_queue.push_reserved t.queue ~time:at ~seq:(s.s_seq0 + k)
          (Tick { series = s; k; deferred = false });
        true
      end

let set_timer_series p ~deadlines ~label =
  let t = p.engine in
  let floor = t.clock_now in
  let set0 = Trace.length t.tr and live = ref 0 in
  Seq.iteri
    (fun k deadline ->
      let global_fire =
        Sim_time.max (Clock.global_of_local p.clock deadline) floor
      in
      ignore (record_timer_set t p ~label:(label k) ~deadline ~global_fire);
      if not (Sim_time.is_infinite global_fire) then incr live)
    deadlines;
  if !live > 0 then begin
    let s =
      {
        s_owner = p;
        s_label = label;
        s_rest = deadlines;
        s_clock = p.clock;
        s_floor = floor;
        s_seq0 = Event_queue.reserve t.queue !live;
        s_set0 = set0;
      }
    in
    p.ticking <- p.ticking + !live;
    t.unqueued_ticks <- t.unqueued_ticks + !live - 1;
    ignore (queue_tick t s 0);
    Obsv.Metrics.set t.tm.m_queue_depth (queue_depth t)
  end

let observe ctx obs =
  let t = ctx.engine in
  Trace.record t.tr (Observed { t = t.clock_now; pid = ctx.self; obs })

let halt p =
  let t = p.engine in
  if not p.halted then begin
    p.halted <- true;
    Trace.record t.tr (Halted { t = t.clock_now; pid = p.self })
  end

(* --- main loop --- *)

type status = Quiescent | Horizon_reached | Event_limit | Violation_stop

let status_name = function
  | Quiescent -> "quiescent"
  | Horizon_reached -> "horizon"
  | Event_limit -> "event-limit"
  | Violation_stop -> "violation-stop"

let would_run p what =
  invalid_arg
    (Printf.sprintf "Engine: %s would run the handler of retired pid %d" what
       p.self)

(* A live firing on an up, running process: the trace entry and the
   handler. *)
let fire t p ~label ~cause ~deferred =
  Trace.record t.tr
    (Timer_fired
       { t = t.clock_now; owner = p.self; label; set_seq = cause; deferred });
  Obsv.Metrics.inc t.tm.m_timers_fired;
  if p.retired then would_run p "a timer";
  p.handlers.on_timer p ~label

(* Where a down process's live firing goes: re-checked at its scheduled
   reboot (deadlines persist in the automaton store), else lost. *)
let deferral_target t p =
  match p.host.up_at with
  | Some r when Sim_time.(r > t.clock_now) ->
      Obsv.Metrics.inc t.tm.m_timers_deferred;
      p.queued <- p.queued + 1;
      Some r
  | _ ->
      Obsv.Metrics.inc t.tm.m_timers_stale;
      None

let crash t ~pid ~recover_at =
  let h =
    match host_of t pid with
    | Some h when h == never_down ->
        (* only a process record holds the shared placeholder *)
        let h = fresh_host () in
        (proc t pid).host <- h;
        h
    | Some h -> h
    | None ->
        let h = fresh_host () in
        Pids.replace t.ghosts pid h;
        h
  in
  if not h.down then begin
    h.down <- true;
    h.up_at <- recover_at;
    Trace.record t.tr (Crashed { t = t.clock_now; pid; recover_at });
    Obsv.Metrics.inc t.tm.m_crashes;
    Obsv.Metrics.gauge_add t.tm.m_procs_down 1
  end

let recover t ~pid =
  match host_of t pid with
  | Some h when h.down ->
      h.down <- false;
      h.up_at <- None;
      (* a pid without a record that is up again holds nothing worth
         keeping *)
      Pids.remove t.ghosts pid;
      Trace.record t.tr (Recovered { t = t.clock_now; pid });
      Obsv.Metrics.inc t.tm.m_recoveries;
      Obsv.Metrics.gauge_add t.tm.m_procs_down (-1)
  | _ -> ()

let dispatch t ev =
  match ev with
  | Deliver { src; dst = p; msg; sent_at; cause } ->
      p.inbox <- p.inbox - 1;
      p.queued <- p.queued - 1;
      if p.host.down then
        (* a crashed host receives nothing: the message is gone, like a
           network drop — recovery does not replay it, and it records no
           entry *)
        Obsv.Metrics.inc t.tm.m_down_drops
      else begin
        let tag = t.tag_of msg in
        Trace.record t.tr
          (Delivered
             {
               t = t.clock_now;
               sent_at;
               src;
               dst = p.self;
               tag;
               msg;
               sent_seq = cause;
             });
        Obsv.Metrics.inc t.tm.m_delivered;
        if not p.halted then begin
          if p.retired then would_run p "a delivery";
          p.handlers.on_receive p ~src:(src - p.base) msg
        end
      end;
      drop_if_spent t p
  | Fire { owner = p; label; cause; deferred } ->
      (* live: a cancel or re-arm takes a Fire out of the queue *)
      p.queued <- p.queued - 1;
      if p.halted then begin
        (* a halted process runs no handler again, up or down: its timer
           is spent here rather than deferred to a reboot where it could
           only go stale *)
        Hashtbl.remove p.armed label;
        Obsv.Metrics.inc t.tm.m_timers_stale
      end
      else if p.host.down then begin
        match deferral_target t p with
        | Some r ->
            Hashtbl.replace p.armed label
              (Event_queue.push_removable t.queue ~time:r
                 (Fire { owner = p; label; cause; deferred = true }))
        | None -> Hashtbl.remove p.armed label
      end
      else begin
        (* disarm before the handler runs: the handler may re-arm the
           label *)
        Hashtbl.remove p.armed label;
        fire t p ~label ~cause ~deferred
      end;
      drop_if_spent t p
  | Tick { series = s; k; deferred } ->
      let p = s.s_owner in
      p.queued <- p.queued - 1;
      (* the next member takes the queue as this one leaves it *)
      if (not deferred) && queue_tick t s (k + 1) then
        t.unqueued_ticks <- t.unqueued_ticks - 1;
      if p.halted then begin
        (* as for a [Fire]: spent now, not deferred to a reboot *)
        p.ticking <- p.ticking - 1;
        Obsv.Metrics.inc t.tm.m_timers_stale
      end
      else if p.host.down then begin
        match deferral_target t p with
        | Some r ->
            Event_queue.push t.queue ~time:r
              (Tick { series = s; k; deferred = true })
        | None -> p.ticking <- p.ticking - 1
      end
      else begin
        p.ticking <- p.ticking - 1;
        fire t p ~label:(s.s_label k) ~cause:(s.s_set0 + k) ~deferred
      end;
      drop_if_spent t p
  | Crash { pid; recover_at; _ } -> crash t ~pid ~recover_at
  | Recover { pid; _ } -> recover t ~pid

(* a crash of a pid without a record is charged to its scheduled label *)
let label_of t prof pid label =
  match Pids.find t.procs pid with
  | p -> p.prof_label
  | exception Not_found -> Obsv.Prof.intern prof label

(* The profiled dispatch path: stamp clock + allocation counters around
   [dispatch], then charge the deltas to the (payment, process label,
   event kind) site. [cur_trace] is reset first so attribution reads the
   tag the dispatch itself established (a trace fold sets it on each
   delivery and live firing) and [-1] otherwise — semantically inert,
   because every consumer of [cur_trace] runs inside a dispatch that
   first sets it. *)
let dispatch_profiled t p ev =
  Obsv.Prof.observe_queue_depth p (queue_depth t);
  t.cur_trace <- -1;
  Obsv.Prof.enter p;
  dispatch t ev;
  match ev with
  | Deliver { dst; _ } ->
      Obsv.Prof.leave p ~label:dst.prof_label ~kind:Obsv.Prof.Deliver
        ~trace:t.cur_trace
  | Fire { owner; _ } ->
      Obsv.Prof.leave p ~label:owner.prof_label ~kind:Obsv.Prof.Timer
        ~trace:t.cur_trace
  | Tick { series; _ } ->
      Obsv.Prof.leave p ~label:series.s_owner.prof_label ~kind:Obsv.Prof.Timer
        ~trace:t.cur_trace
  | Crash { pid; label; _ } ->
      Obsv.Prof.leave p ~label:(label_of t p pid label) ~kind:Obsv.Prof.Crash
        ~trace:(-1)
  | Recover { pid; label } ->
      Obsv.Prof.leave p ~label:(label_of t p pid label)
        ~kind:Obsv.Prof.Recover ~trace:(-1)

(* The armed runtime-verification step: advance the sampler, then evaluate
   the monitor at the current sim-time. Returns [true] when a
   stop-on-violation monitor tripped. *)
let watch_step t w =
  (match w.samp with
  | None -> ()
  | Some s -> Obsv.Sampler.tick s ~now:t.clock_now);
  match w.mon with
  | None -> false
  | Some m ->
      Obsv.Monitor.step m ~at:t.clock_now;
      Obsv.Monitor.should_stop m

let run ?(horizon = Sim_time.infinity) ?(max_events = 1_000_000) t =
  if not t.started then begin
    t.started <- true;
    (* in pid order; plain consecutive adds already are *)
    let rec ascending = function
      | a :: (b :: _ as rest) -> a.self < b.self && ascending rest
      | _ -> true
    in
    let born = List.rev t.unstarted in
    let born =
      if ascending born then born
      else List.sort (fun a b -> Int.compare a.self b.self) born
    in
    t.unstarted <- [];
    List.iter (fun p -> if not p.halted then p.handlers.on_start p) born
  end;
  (match t.prof with None -> () | Some p -> Obsv.Prof.run_begin p);
  let rec loop n =
    if n >= max_events then Event_limit
    else if Event_queue.is_empty t.queue then Quiescent
    else
      let time = Event_queue.min_time t.queue in
      if Sim_time.(time > horizon) then Horizon_reached
      else begin
        let ev = Event_queue.pop_min t.queue in
        t.clock_now <- Sim_time.max t.clock_now time;
        t.events <- t.events + 1;
        Obsv.Metrics.inc t.tm.m_events;
        Obsv.Metrics.set t.tm.m_queue_depth (queue_depth t);
        (* one option match per event is the whole off-path cost *)
        (match t.prof with
        | None -> dispatch t ev
        | Some p -> dispatch_profiled t p ev);
        (* same contract for runtime verification: unarmed engines pay
           exactly this one match *)
        match t.watch with
        | None -> loop (n + 1)
        | Some w -> if watch_step t w then Violation_stop else loop (n + 1)
      end
  in
  let status = loop 0 in
  (match t.prof with None -> () | Some p -> Obsv.Prof.run_end p);
  (match t.watch with
  | Some { mon = Some m; _ } -> Obsv.Monitor.finalize m ~at:t.clock_now
  | _ -> ());
  status

let events_processed t = t.events
