module A = Automaton

type deviation = { at : Sim.Sim_time.t; state : A.state; reason : string }

type ('i, 'msg, 'obs) cursor = {
  mutable state : int;
  pool : 'msg Pool.t;
  mutable finished : bool;
  mutable deviation : deviation option;
  mutable armed : ('i, 'msg, 'obs) A.cbranch array;  (* as the executor's *)
  mutable owed : (int * string) list;  (* (state, label) to set, in order *)
}

let fail ?state auto c ~at reason =
  if c.deviation = None then
    let state = Option.value state ~default:c.state in
    c.deviation <- Some { at; state = A.state_name auto state; reason }

(* Enter input state [c.state] as {!Executor} does: owe a [Timer_set] for
   each of its deadlines but a named one the state left already arms. *)
let rearm c next =
  let before = c.armed in
  c.armed <- next;
  Array.iter
    (fun (b : _ A.cbranch) ->
      match b.A.cguard with
      | A.C_deadline { label; named; _ } when not (named && A.arms_named before label) ->
          c.owed <- c.owed @ [ (c.state, label) ]
      | A.C_deadline _ | A.C_receive _ -> ())
    next

(* The process's next arming, [Some label], or a step of it that is none:
   either must match the timers owed, in order. *)
let on_arming auto c ~at arming =
  match (c.owed, arming) with
  | [], None -> ()
  | (_, l) :: rest, Some label when String.equal l label -> c.owed <- rest
  | (state, l) :: _, _ ->
      fail ~state auto c ~at
        (Printf.sprintf "state %s arms timer %S, the process set %s"
           (A.state_name auto state) l
           (match arming with Some label -> Printf.sprintf "%S" label | None -> "none"))
  | [], Some label ->
      fail auto c ~at
        (Printf.sprintf "set timer %S that state %s does not arm" label
           (A.state_name auto c.state))

(* Enter state [st], arming its deadlines as the executor does, and
   settle there. *)
let rec enter auto inst c st ~at =
  c.state <- st;
  (match A.cnode auto st with
  | A.C_input branches -> rearm c branches
  | A.C_final _ -> c.armed <- [||]
  | A.C_output _ | A.C_missing -> ());
  settle auto inst c ~at

(* Consume pool-enabled receive transitions greedily, exactly as the
   executor does (the same {!Automaton.match_receive}, effect-free here),
   stopping at an output state (which awaits a Sent event), a final state,
   or a quiescent input state. *)
and settle auto inst c ~at =
  match A.cnode auto c.state with
  | A.C_missing ->
      fail auto c ~at
        (Printf.sprintf "unknown state %s" (A.state_name auto c.state))
  | A.C_final _ -> c.finished <- true
  | A.C_output _ -> () (* wait for the Sent event *)
  | A.C_input branches ->
      let bi = A.match_receive branches inst c.pool in
      if bi >= 0 then begin
        ignore (Pool.take_hit c.pool);
        enter auto inst c branches.(bi).A.c_next ~at
      end

let on_delivered auto inst c ~at ~src msg =
  if not c.finished then begin
    Pool.push c.pool src msg;
    settle auto inst c ~at
  end

let on_sent auto inst tag_of c ~at ~dst msg =
  if c.finished then fail auto c ~at "sent a message after reaching a final state"
  else
    match A.cnode auto c.state with
    | A.C_output { to_; next; _ } ->
        if dst <> to_ then
          fail auto c ~at
            (Printf.sprintf "sent [%s] to %d, automaton sends to %d"
               (tag_of msg) dst to_)
        else enter auto inst c next ~at
    | A.C_input _ ->
        fail auto c ~at
          (Printf.sprintf "sent [%s] to %d from an input (waiting) state"
             (tag_of msg) dst)
    | A.C_final _ -> fail auto c ~at "sent from a final state"
    | A.C_missing -> fail auto c ~at "sent from an unknown state"

(* the deadline branch of [branches] armed under [label], or [-1] *)
let rec deadline_of branches label i =
  if i >= Array.length branches then -1
  else
    match branches.(i).A.cguard with
    | A.C_deadline { label = l; _ } when String.equal l label -> i
    | A.C_deadline _ | A.C_receive _ -> deadline_of branches label (i + 1)

let on_timer auto inst c ~at ~label =
  if not c.finished then
    match A.cnode auto c.state with
    | A.C_input branches when deadline_of branches label 0 >= 0 ->
        enter auto inst c branches.(deadline_of branches label 0).A.c_next ~at
    | _ ->
        fail auto c ~at
          (Printf.sprintf "timer %S fired but state %s arms no such timer" label
             (A.state_name auto c.state))

let check auto inst ~pid ~tag_of trace =
  let c =
    {
      state = A.initial_index auto;
      pool = Pool.create ();
      finished = false;
      deviation = None;
      armed = [||];
      owed = [];
    }
  in
  enter auto inst c (A.initial_index auto) ~at:Sim.Sim_time.zero;
  List.iter
    (fun entry ->
      if c.deviation = None then
        match entry with
        | Sim.Trace.Sent { t; src; dst; msg; _ } when src = pid ->
            on_arming auto c ~at:t None;
            on_sent auto inst tag_of c ~at:t ~dst msg
        | Sim.Trace.Delivered { t; src; dst; msg; _ } when dst = pid ->
            on_arming auto c ~at:t None;
            on_delivered auto inst c ~at:t ~src msg
        | Sim.Trace.Timer_fired { t; owner; label; _ } when owner = pid ->
            on_arming auto c ~at:t None;
            on_timer auto inst c ~at:t ~label
        | Sim.Trace.Timer_set { t; owner; label; _ } when owner = pid ->
            on_arming auto c ~at:t (Some label)
        | _ -> ())
    (Sim.Trace.to_list trace);
  on_arming auto c ~at:(Sim.Trace.last_time trace) None;
  match c.deviation with
  | Some d -> Error d
  | None -> (
      (* a run may legitimately end mid-protocol (the process is waiting),
         but never between an output state being entered and its send *)
      match A.cnode auto c.state with
      | A.C_output { to_; _ } when not c.finished ->
          Error
            {
              at = Sim.Trace.last_time trace;
              state = A.state_name auto c.state;
              reason =
                Printf.sprintf "run ended with the send to %d still owed" to_;
            }
      | _ -> Ok ())
