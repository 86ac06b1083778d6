module A = Automaton

type deviation = { at : Sim.Sim_time.t; state : A.state; reason : string }

type 'msg cursor = {
  mutable state : int;
  pool : 'msg Pool.t;
  mutable finished : bool;
  mutable deviation : deviation option;
}

let fail auto c ~at reason =
  if c.deviation = None then
    c.deviation <- Some { at; state = A.state_name auto c.state; reason }

(* Enter a state; consume pool-enabled receive transitions greedily, exactly
   as the executor does (the same {!Automaton.match_receive}, effect-free
   here), stopping at an output state (which awaits a Sent event), a final
   state, or a quiescent input state. *)
let rec settle auto inst c ~at =
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
        c.state <- branches.(bi).A.c_next;
        settle auto inst c ~at
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
        else begin
          c.state <- next;
          settle auto inst c ~at
        end
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
        c.state <- branches.(deadline_of branches label 0).A.c_next;
        settle auto inst c ~at
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
    }
  in
  settle auto inst c ~at:Sim.Sim_time.zero;
  List.iter
    (fun entry ->
      if c.deviation = None then
        match entry with
        | Sim.Trace.Sent { t; src; dst; msg; _ } when src = pid ->
            on_sent auto inst tag_of c ~at:t ~dst msg
        | Sim.Trace.Delivered { t; src; dst; msg; _ } when dst = pid ->
            on_delivered auto inst c ~at:t ~src msg
        | Sim.Trace.Timer_fired { t; owner; label; _ } when owner = pid ->
            on_timer auto inst c ~at:t ~label
        | _ -> ())
    (Sim.Trace.to_list trace);
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
