type 'msg event =
  | Deliver of {
      src : int;
      dst : int;
      msg : 'msg;
      sent_at : Sim_time.t;
      cause : int; (* causal node id of the send, -1 when tracing is off *)
    }
  | Fire of {
      owner : int;
      label : string;
      epoch : int;
      cause : int; (* causal node id of the arming timer_set *)
      deferred : bool; (* re-pushed to the owner's recovery by an outage *)
    }
  | Crash of { pid : int; recover_at : Sim_time.t option }
  | Recover of { pid : int }

type ('msg, 'obs) handlers = {
  on_start : ('msg, 'obs) ctx -> unit;
  on_receive : ('msg, 'obs) ctx -> src:int -> 'msg -> unit;
  on_timer : ('msg, 'obs) ctx -> label:string -> unit;
}

and ('msg, 'obs) proc = {
  handlers : ('msg, 'obs) handlers;
  mutable clock : Clock.t;
  base : int;
      (* pid-translation offset: [send ~dst] resolves to [base + dst] and
         delivered [~src] is rebased the same way, so handlers written
         against a logical pid layout (e.g. one payment's Topology) can be
         instantiated many times in one engine at different offsets *)
  proc_rng : Rng.t;
  armed : (string, int) Hashtbl.t;
      (* the epoch of each armed label; a Fire is live only while its
         label is armed at its epoch. A label leaves on cancel and on a
         live fire, so the table holds what is armed now, not every label
         the process ever used. *)
  mutable halted : bool;
  mutable down : bool; (* crashed by fault injection, may recover *)
  mutable up_at : Sim_time.t option; (* scheduled reboot while down *)
  mutable last_node : int; (* this pid's latest causal node (program order) *)
  mutable crash_node : int;
  mutable recover_node : int; (* outage edges: crash → recover → deferred *)
  prof_label : int; (* interned Prof label id, -1 when profiling is off *)
  self_ctx : ('msg, 'obs) ctx;
      (* this pid's handler context, built once rather than per dispatch *)
}

(* Handles resolved once at [create]: the per-event updates below are plain
   integer stores (see lib/obsv), cheap enough to stay on at any scale. *)
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
  root_rng : Rng.t;
  queue : 'msg event Event_queue.t;
  mutable procs : ('msg, 'obs) proc array;
  mutable nprocs : int;
  tr : ('msg, 'obs) Trace.t;
  mutable clock_now : Sim_time.t;
  mutable started : bool;
  mutable next_epoch : int;
      (* timer epochs are engine-wide and never reused: a re-armed or
         cancelled label can never match an older Fire *)
  tm : telemetry;
  causal : Obsv.Causal.t option;
  prof : Obsv.Prof.t option;
  watch : watch option;
  (* context of the event being dispatched; [Trace.on_record] hooks read
     [cur_node] to learn which causal node an observation belongs to *)
  mutable cur_node : int;
  mutable cur_trace : int;
  mutable events : int; (* events dequeued over this engine's lifetime *)
}

and ('msg, 'obs) ctx = { engine : ('msg, 'obs) t; self : int }

let silent =
  {
    on_start = (fun _ -> ());
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let telemetry_handles reg =
  let counter = Obsv.Metrics.counter reg in
  {
    m_events = counter ~help:"Events dequeued by the engine" "xchain_events_total";
    m_sent = counter ~help:"Messages sent" "xchain_messages_sent_total";
    m_delivered =
      counter ~help:"Messages delivered" "xchain_messages_delivered_total";
    m_timers_set = counter ~help:"Timers armed" "xchain_timers_set_total";
    m_timers_fired = counter ~help:"Timers fired live" "xchain_timers_fired_total";
    m_timers_stale =
      counter ~help:"Stale timer firings dropped (re-armed or cancelled)"
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
    ?(metrics = Obsv.Metrics.default) ?trace_capacity ?causal ?prof ?monitor
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
    procs = [||];
    nprocs = 0;
    tr = Trace.create ?capacity:trace_capacity ();
    clock_now = Sim_time.zero;
    started = false;
    next_epoch = 0;
    tm = telemetry_handles metrics;
    causal;
    prof;
    watch;
    cur_node = -1;
    cur_trace = -1;
    events = 0;
  }

let add_process t ?(clock = Clock.perfect) ?(base = 0) ?label handlers =
  if t.started then invalid_arg "Engine.add_process: engine already running";
  if base < 0 then invalid_arg "Engine.add_process: negative base";
  let prof_label =
    match t.prof with
    | None -> -1
    | Some p ->
        Obsv.Prof.intern p (match label with Some l -> l | None -> "proc")
  in
  let pid = t.nprocs in
  let proc =
    {
      handlers;
      clock;
      base;
      proc_rng = Rng.split t.root_rng;
      armed = Hashtbl.create 4;
      halted = false;
      down = false;
      up_at = None;
      last_node = -1;
      crash_node = -1;
      recover_node = -1;
      prof_label;
      self_ctx = { engine = t; self = pid };
    }
  in
  let cap = Array.length t.procs in
  if t.nprocs >= cap then begin
    let np = Array.make (Stdlib.max 8 (2 * cap)) proc in
    Array.blit t.procs 0 np 0 t.nprocs;
    t.procs <- np
  end;
  t.procs.(pid) <- proc;
  t.nprocs <- pid + 1;
  pid

let process_count t = t.nprocs
let proc t pid = t.procs.(pid)
let trace t = t.tr
let now t = t.clock_now
let clock_of t pid = (proc t pid).clock
let is_halted t pid = (proc t pid).halted
let is_down t pid = (proc t pid).down

let set_clock t ~pid clock = (proc t pid).clock <- clock

(* --- causal recording (every call is a no-op when [causal] is absent) --- *)

let causal t = t.causal
let prof t = t.prof
let current_node t = t.cur_node

(* Append a node for [pid] and chain it into the pid's program order. All
   other edges are the caller's business. *)
let causal_record t ~kind ~pid ~trace ~label =
  match t.causal with
  | None -> -1
  | Some c ->
      let p = proc t pid in
      let node =
        Obsv.Causal.record c ~kind ~pid ~at:t.clock_now ~trace ~label ()
      in
      if p.last_node >= 0 then
        Obsv.Causal.add_edge c ~kind:Obsv.Causal.Program ~src:p.last_node
          ~dst:node;
      p.last_node <- node;
      node

let schedule_crash t ~pid ~at ?recover_at () =
  if t.started then
    invalid_arg "Engine.schedule_crash: engine already running";
  if pid < 0 || pid >= t.nprocs then
    invalid_arg "Engine.schedule_crash: bad pid";
  (match recover_at with
  | Some r when Sim_time.(r <= at) ->
      invalid_arg "Engine.schedule_crash: recovery must follow the crash"
  | _ -> ());
  Event_queue.push t.queue ~time:at (Crash { pid; recover_at });
  match recover_at with
  | Some r when not (Sim_time.is_infinite r) ->
      Event_queue.push t.queue ~time:r (Recover { pid })
  | _ -> ()

(* --- ctx operations --- *)

let pid ctx = ctx.self - (proc ctx.engine ctx.self).base
let rng ctx = (proc ctx.engine ctx.self).proc_rng

let local_now ctx =
  Clock.local_of_global (proc ctx.engine ctx.self).clock ctx.engine.clock_now

let push_delivery t ~src ~dst ~depart ~tag ~cause msg =
  let arrive =
    Network.delivery_time t.network ~send_time:depart ~src ~dst ~tag
  in
  Event_queue.push t.queue ~time:arrive
    (Deliver { src; dst; msg; sent_at = t.clock_now; cause })

(* The fault injector decides how many copies the channel carries (none =
   dropped); each surviving copy draws its own delay, so duplicates still
   obey the per-link FIFO clamp. A plain recursion rather than [List.iter]
   over a closure, so a send allocates no closure. *)
let rec push_copies t p ~src ~dst ~depart ~tag ~cause msg = function
  | [] -> ()
  | copy :: rest ->
      (match (copy : Network.copy) with
      | Network.Intact -> push_delivery t ~src ~dst ~depart ~tag ~cause msg
      | Network.Corrupted -> (
          match t.mangle with
          | Some f -> (
              match f msg p.proc_rng with
              | Some damaged ->
                  push_delivery t ~src ~dst ~depart ~tag ~cause damaged
              | None -> Obsv.Metrics.inc t.tm.m_corrupt_drops)
          | None ->
              (* authenticated channels: an undetectably-corrupted payload
                 cannot be fabricated, so the receiver discards it — model
                 that as a drop at the network *)
              Obsv.Metrics.inc t.tm.m_corrupt_drops));
      push_copies t p ~src ~dst ~depart ~tag ~cause msg rest

let send_resolved ctx ~dst msg =
  let t = ctx.engine in
  if dst < 0 || dst >= t.nprocs then invalid_arg "Engine.send: bad destination";
  let tag = t.tag_of msg in
  let p = proc t ctx.self in
  let compute =
    if Sim_time.equal t.sigma Sim_time.zero then Sim_time.zero
    else Rng.int_in p.proc_rng ~lo:0 ~hi:t.sigma
  in
  let depart = Sim_time.add t.clock_now compute in
  let cause =
    causal_record t ~kind:Obsv.Causal.Send ~pid:ctx.self ~trace:t.cur_trace
      ~label:tag
  in
  if cause >= 0 then t.cur_node <- cause;
  Trace.record t.tr (Sent { t = t.clock_now; src = ctx.self; dst; tag; msg });
  Obsv.Metrics.inc t.tm.m_sent;
  push_copies t p ~src:ctx.self ~dst ~depart ~tag ~cause msg
    (Network.fate t.network ~send_time:depart ~src:ctx.self ~dst ~tag);
  Obsv.Metrics.set t.tm.m_queue_depth (Event_queue.length t.queue)

let send ctx ~dst msg =
  send_resolved ctx ~dst:((proc ctx.engine ctx.self).base + dst) msg

let send_absolute ctx ~dst msg = send_resolved ctx ~dst msg

let set_timer ctx ~deadline ~label =
  let t = ctx.engine in
  let p = proc t ctx.self in
  let epoch = t.next_epoch in
  t.next_epoch <- epoch + 1;
  Hashtbl.replace p.armed label epoch;
  let global_fire = Clock.global_of_local p.clock deadline in
  (* never fire in the past: a deadline already reached fires "now" *)
  let global_fire = Sim_time.max global_fire t.clock_now in
  let cause =
    causal_record t ~kind:Obsv.Causal.Timer_set ~pid:ctx.self
      ~trace:t.cur_trace ~label
  in
  if cause >= 0 then t.cur_node <- cause;
  Trace.record t.tr
    (Timer_set
       {
         t = t.clock_now;
         owner = ctx.self;
         label;
         local_deadline = deadline;
         global_fire;
       });
  Obsv.Metrics.inc t.tm.m_timers_set;
  if not (Sim_time.is_infinite global_fire) then begin
    Event_queue.push t.queue ~time:global_fire
      (Fire { owner = ctx.self; label; epoch; cause; deferred = false });
    Obsv.Metrics.set t.tm.m_queue_depth (Event_queue.length t.queue)
  end

let set_timer_after ctx ~after ~label =
  set_timer ctx ~deadline:(Sim_time.add (local_now ctx) after) ~label

let cancel_timer ctx ~label =
  Hashtbl.remove (proc ctx.engine ctx.self).armed label

let causal_note ctx ?(after = -1) ?trace ~label () =
  let t = ctx.engine in
  match t.causal with
  | None -> -1
  | Some c ->
      let tr = match trace with Some v -> v | None -> t.cur_trace in
      let node =
        causal_record t ~kind:Obsv.Causal.Note ~pid:ctx.self ~trace:tr ~label
      in
      if after >= 0 then
        Obsv.Causal.add_edge c ~kind:Obsv.Causal.Queue ~src:after ~dst:node;
      t.cur_node <- node;
      t.cur_trace <- tr;
      node

let observe ctx obs =
  let t = ctx.engine in
  Trace.record t.tr (Observed { t = t.clock_now; pid = ctx.self; obs })

let halt ctx =
  let t = ctx.engine in
  let p = proc t ctx.self in
  if not p.halted then begin
    p.halted <- true;
    Trace.record t.tr (Halted { t = t.clock_now; pid = ctx.self })
  end

(* --- main loop --- *)

type status = Quiescent | Horizon_reached | Event_limit | Violation_stop

let dispatch t ev =
  match ev with
  | Deliver { src; dst; msg; sent_at; cause } ->
      let p = proc t dst in
      if p.down then
        (* a crashed host receives nothing: the message is gone, like a
           network drop — recovery does not replay it. No causal node: a
           dropped copy is not an event anyone can depend on. *)
        Obsv.Metrics.inc t.tm.m_down_drops
      else begin
        let tag = t.tag_of msg in
        (match t.causal with
        | Some c when cause >= 0 ->
            let trace = Obsv.Causal.trace_of c cause in
            t.cur_trace <- trace;
            let node =
              causal_record t ~kind:Obsv.Causal.Deliver ~pid:dst ~trace
                ~label:tag
            in
            Obsv.Causal.add_edge c ~kind:Obsv.Causal.Message ~src:cause
              ~dst:node;
            t.cur_node <- node
        | _ -> ());
        Trace.record t.tr
          (Delivered { t = t.clock_now; sent_at; src; dst; tag; msg });
        Obsv.Metrics.inc t.tm.m_delivered;
        if not p.halted then
          p.handlers.on_receive p.self_ctx ~src:(src - p.base) msg
      end
  | Fire { owner; label; epoch; cause; deferred } ->
      let p = proc t owner in
      let live =
        match Hashtbl.find p.armed label with
        | e -> e = epoch
        | exception Not_found -> false
      in
      if live && p.down then begin
        match p.up_at with
        | Some r when Sim_time.(r > t.clock_now) ->
            (* deadlines persist across a reboot (they live in the automaton
               store): re-check them the moment the process comes back *)
            Obsv.Metrics.inc t.tm.m_timers_deferred;
            Event_queue.push t.queue ~time:r
              (Fire { owner; label; epoch; cause; deferred = true })
        | _ -> Obsv.Metrics.inc t.tm.m_timers_stale
      end
      else if live && not p.halted then begin
        (* disarm before the handler runs: no other Fire carries this
           epoch, and the handler may re-arm the label *)
        Hashtbl.remove p.armed label;
        (match t.causal with
        | Some c when cause >= 0 ->
            let trace = Obsv.Causal.trace_of c cause in
            t.cur_trace <- trace;
            let node =
              causal_record t ~kind:Obsv.Causal.Timer_fire ~pid:owner ~trace
                ~label
            in
            Obsv.Causal.add_edge c ~kind:Obsv.Causal.Timer ~src:cause
              ~dst:node;
            (* a firing pushed past an outage additionally happens-after the
               reboot, which is what lets blame charge the dead time *)
            if deferred && p.recover_node >= 0 then
              Obsv.Causal.add_edge c ~kind:Obsv.Causal.Outage
                ~src:p.recover_node ~dst:node;
            t.cur_node <- node
        | _ -> ());
        Trace.record t.tr (Timer_fired { t = t.clock_now; owner; label });
        Obsv.Metrics.inc t.tm.m_timers_fired;
        p.handlers.on_timer p.self_ctx ~label
      end
      else Obsv.Metrics.inc t.tm.m_timers_stale
  | Crash { pid; recover_at } ->
      let p = proc t pid in
      if not p.down then begin
        p.down <- true;
        p.up_at <- recover_at;
        let node =
          causal_record t ~kind:Obsv.Causal.Crash ~pid ~trace:(-1)
            ~label:"crash"
        in
        if node >= 0 then begin
          p.crash_node <- node;
          t.cur_node <- node
        end;
        Trace.record t.tr (Crashed { t = t.clock_now; pid; recover_at });
        Obsv.Metrics.inc t.tm.m_crashes;
        Obsv.Metrics.gauge_add t.tm.m_procs_down 1
      end
  | Recover { pid } ->
      let p = proc t pid in
      if p.down then begin
        p.down <- false;
        p.up_at <- None;
        (match t.causal with
        | Some c ->
            (* program order already chains recover after crash; the Outage
               edge re-labels that gap as downtime for blame *)
            let node =
              causal_record t ~kind:Obsv.Causal.Recover ~pid ~trace:(-1)
                ~label:"recover"
            in
            if p.crash_node >= 0 then
              Obsv.Causal.add_edge c ~kind:Obsv.Causal.Outage
                ~src:p.crash_node ~dst:node;
            p.recover_node <- node;
            t.cur_node <- node
        | None -> ());
        Trace.record t.tr (Recovered { t = t.clock_now; pid });
        Obsv.Metrics.inc t.tm.m_recoveries;
        Obsv.Metrics.gauge_add t.tm.m_procs_down (-1)
      end

(* The profiled dispatch path: stamp clock + allocation counters around
   [dispatch], then charge the deltas to the (payment, process label,
   event kind) site. [cur_trace] is reset first so attribution reads the
   trace the dispatch itself established (deliver/fire under causal
   tracing) and [-1] otherwise — semantically inert, because every
   consumer of [cur_trace] runs inside a dispatch that first sets it. *)
let dispatch_profiled t p ev =
  Obsv.Prof.observe_queue_depth p (Event_queue.length t.queue);
  t.cur_trace <- -1;
  Obsv.Prof.enter p;
  dispatch t ev;
  match ev with
  | Deliver { dst; _ } ->
      Obsv.Prof.leave p ~label:(proc t dst).prof_label ~kind:Obsv.Prof.Deliver
        ~trace:t.cur_trace
  | Fire { owner; _ } ->
      Obsv.Prof.leave p ~label:(proc t owner).prof_label ~kind:Obsv.Prof.Timer
        ~trace:t.cur_trace
  | Crash { pid; _ } ->
      Obsv.Prof.leave p ~label:(proc t pid).prof_label ~kind:Obsv.Prof.Crash
        ~trace:(-1)
  | Recover { pid } ->
      Obsv.Prof.leave p ~label:(proc t pid).prof_label ~kind:Obsv.Prof.Recover
        ~trace:(-1)

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
    for i = 0 to t.nprocs - 1 do
      let p = proc t i in
      if not p.halted then p.handlers.on_start p.self_ctx
    done
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
        Obsv.Metrics.set t.tm.m_queue_depth (Event_queue.length t.queue);
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
let queue_depth t = Event_queue.length t.queue
