open Sim

type ('msg, 'obs) running = {
  auto : ('msg, 'obs) Automaton.t;
  sstore : 'msg Store.t;
  mutable state : Automaton.state;
  mutable node : ('msg, 'obs) Automaton.node option;
      (* the current state's node, looked up once on entry *)
  mutable rev_visited : Automaton.state list;
  mutable finished : bool;
  mutable pending : (int * 'msg) list; (* oldest first *)
  mutable labels : string array;
      (* timer label "<state>#<i>" of each deadline branch [i] of the
         current input state, built once on entry: disarming and matching
         a fired timer then format nothing, and states a run never enters
         cost nothing *)
}

let current_state r = r.state
let visited r = List.rev r.rev_visited
let terminated r = r.finished
let store r = r.sstore
let pending_count r = List.length r.pending

let branches_of r =
  match r.node with Some (Automaton.Input branches) -> branches | _ -> []

let disarm_deadlines ctx r =
  List.iteri
    (fun idx (b : ('msg, 'obs) Automaton.branch) ->
      match b.guard with
      | Automaton.Deadline _ -> Engine.cancel_timer ctx ~label:r.labels.(idx)
      | Automaton.Receive _ -> ())
    (branches_of r)

let take_branch ctx r (b : ('msg, 'obs) Automaton.branch) msg =
  disarm_deadlines ctx r;
  let now = Engine.local_now ctx in
  List.iter (fun v -> Store.set_clock r.sstore v now) b.save_now;
  (match (b.save_msg, msg) with
  | Some var, Some m -> Store.set_data r.sstore var m
  | Some var, None ->
      invalid_arg
        (Printf.sprintf "Anta.Executor: save_msg %s on a deadline branch" var)
  | None, _ -> ());
  b.b_act ctx r.sstore msg;
  b.next

(* Try to fire a receive branch against the pending pool. Branch order is the
   priority; within one branch the pool is scanned oldest-first. *)
let try_fire_receive r =
  let rec find_in_pool from_ accept seen = function
    | [] -> None
    | ((src, m) as item) :: rest ->
        if src = from_ && accept m then Some (m, List.rev_append seen rest)
        else find_in_pool from_ accept (item :: seen) rest
  in
  let rec scan = function
    | [] -> None
    | (b : ('msg, 'obs) Automaton.branch) :: rest -> (
        match b.guard with
        | Automaton.Receive { from_; accept; _ } -> (
            match find_in_pool from_ accept [] r.pending with
            | Some (m, pool) -> Some (b, m, pool)
            | None -> scan rest)
        | Automaton.Deadline _ -> scan rest)
  in
  scan (branches_of r)

let rec enter ctx on_final r st =
  r.state <- st;
  r.rev_visited <- st :: r.rev_visited;
  r.node <- Automaton.node r.auto st;
  match r.node with
  | None ->
      invalid_arg
        (Printf.sprintf "Anta.Executor: automaton %s reached unknown state %s"
           (Automaton.name r.auto) st)
  | Some (Automaton.Output { to_; message; o_act; next }) ->
      o_act ctx r.sstore;
      Engine.send ctx ~dst:to_ (message ctx r.sstore);
      enter ctx on_final r next
  | Some (Automaton.Final { f_act }) ->
      r.finished <- true;
      f_act ctx r.sstore;
      on_final ctx r.sstore;
      Engine.halt ctx
  | Some (Automaton.Input branches) -> (
      r.labels <- Array.make (List.length branches) "";
      List.iteri
        (fun idx (b : ('msg, 'obs) Automaton.branch) ->
          match b.guard with
          | Automaton.Deadline { base; offset } ->
              let deadline = Sim_time.add (Store.clock r.sstore base) offset in
              let label = st ^ "#" ^ string_of_int idx in
              r.labels.(idx) <- label;
              Engine.set_timer ctx ~deadline ~label
          | Automaton.Receive _ -> ())
        branches;
      (* a message already in the pool may enable a transition right away *)
      match try_fire_receive r with
      | Some (b, m, pool) ->
          r.pending <- pool;
          let next = take_branch ctx r b (Some m) in
          enter ctx on_final r next
      | None -> ())

let handlers auto ?(init_clocks = []) ?(on_final = fun _ _ -> ()) () =
  let r =
    {
      auto;
      sstore = Store.create ();
      state = Automaton.initial auto;
      node = Automaton.node auto (Automaton.initial auto);
      rev_visited = [];
      finished = false;
      pending = [];
      labels = [||];
    }
  in
  let on_start ctx =
    let now = Engine.local_now ctx in
    List.iter (fun v -> Store.set_clock r.sstore v now) init_clocks;
    enter ctx on_final r (Automaton.initial auto)
  in
  let on_receive ctx ~src msg =
    if not r.finished then begin
      r.pending <- r.pending @ [ (src, msg) ];
      match r.node with
      | Some (Automaton.Input _) -> (
          match try_fire_receive r with
          | Some (b, m, pool) ->
              r.pending <- pool;
              let next = take_branch ctx r b (Some m) in
              enter ctx on_final r next
          | None -> ())
      | _ -> ()
    end
  in
  let on_timer ctx ~label =
    if not r.finished then
      let branches = branches_of r in
      let rec find idx = function
        | [] -> ()
        | (b : ('msg, 'obs) Automaton.branch) :: rest -> (
            match b.guard with
            | Automaton.Deadline _ when String.equal label r.labels.(idx) ->
                let next = take_branch ctx r b None in
                enter ctx on_final r next
            | Automaton.Deadline _ | Automaton.Receive _ -> find (idx + 1) rest)
      in
      find 0 branches
  in
  ({ Engine.on_start; on_receive; on_timer }, r)
