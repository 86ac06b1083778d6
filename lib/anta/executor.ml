open Sim
module A = Automaton

type ('i, 'msg, 'obs) running = {
  auto : ('i, 'msg, 'obs) A.t;
  mutable inst : 'i;
  sstore : 'msg Store.t;
  pool : 'msg Pool.t;
  mutable state : int;
  mutable armed : ('i, 'msg, 'obs) A.cbranch array;
      (* the branches of the input state whose deadlines are armed *)
  mutable finished : bool;
}

let current_state r = A.state_name r.auto r.state

let terminated r = r.finished
let store r = r.sstore
let pending_count r = Pool.length r.pool

(* Move the armed deadlines to [next], the branches of the state entered:
   cancel the old ones but a named timer [next] shares, which keeps its
   place in the queue (or stays spent), and arm the rest. *)
let rearm ctx r next =
  let before = r.armed in
  r.armed <- next;
  for i = 0 to Array.length before - 1 do
    match before.(i).A.cguard with
    | A.C_deadline { label; named; _ } ->
        if not (named && A.arms_named next label) then Engine.cancel_timer ctx ~label
    | A.C_receive _ -> ()
  done;
  for i = 0 to Array.length next - 1 do
    match next.(i).A.cguard with
    | A.C_deadline { base; offset; label; named } ->
        if not (named && A.arms_named before label) then
          let deadline =
            if base < 0 then offset
            else Sim_time.add (Store.clock_at r.sstore base) offset
          in
          Engine.set_timer ctx ~deadline ~label
    | A.C_receive _ -> ()
  done

let take_branch ctx r (b : ('i, 'msg, 'obs) A.cbranch) msg =
  let save_now = b.c_save_now in
  if Array.length save_now > 0 then begin
    let now = Engine.local_now ctx in
    for i = 0 to Array.length save_now - 1 do
      Store.set_clock_at r.sstore save_now.(i) now
    done
  end;
  (if b.c_save_msg >= 0 then
     match msg with
     | Some m -> Store.set_data_at r.sstore b.c_save_msg m
     | None ->
         invalid_arg
           (Printf.sprintf "Anta.Executor: save_msg %s on a deadline branch"
              (A.data_names r.auto).(b.c_save_msg)));
  b.c_act r.inst ctx r.sstore msg;
  b.c_next

let rec enter ctx r st =
  r.state <- st;
  match A.cnode r.auto st with
  | A.C_missing ->
      invalid_arg
        (Printf.sprintf "Anta.Executor: automaton %s reached unknown state %s"
           (A.name r.auto) (A.state_name r.auto st))
  | A.C_output { to_; absolute; message; o_act; next } ->
      o_act r.inst ctx r.sstore;
      let m = message r.inst ctx r.sstore in
      if absolute then Engine.send_absolute ctx ~dst:to_ m
      else Engine.send ctx ~dst:to_ m;
      enter ctx r next
  | A.C_final { f_act } ->
      rearm ctx r [||];
      r.finished <- true;
      f_act r.inst ctx r.sstore;
      Engine.halt ctx
  | A.C_input branches ->
      rearm ctx r branches;
      (* a message already in the pool may enable a transition right away *)
      fire ctx r branches

and fire ctx r branches =
  let bi = A.match_receive branches r.inst r.pool in
  if bi >= 0 then begin
    let m = Pool.take_hit r.pool in
    enter ctx r (take_branch ctx r branches.(bi) (Some m))
  end

let rec fire_deadline ctx r branches label i =
  if i < Array.length branches then
    match branches.(i).A.cguard with
    | A.C_deadline { label = l; _ } when String.equal l label ->
        enter ctx r (take_branch ctx r branches.(i) None)
    | A.C_deadline _ | A.C_receive _ ->
        fire_deadline ctx r branches label (i + 1)

let make auto inst =
  {
    auto;
    inst;
    sstore = Store.of_vars ~clocks:(A.clock_names auto) ~datas:(A.data_names auto);
    pool = Pool.create ();
    state = A.initial_index auto;
    armed = [||];
    finished = false;
  }

let on_start r ctx =
  let now = Engine.local_now ctx in
  List.iter (fun v -> Store.set_clock r.sstore v now) (A.born r.auto);
  enter ctx r (A.initial_index r.auto)

let on_receive r ctx ~src msg =
  if not r.finished then begin
    Pool.push r.pool src msg;
    match A.cnode r.auto r.state with
    | A.C_input branches -> fire ctx r branches
    | A.C_output _ | A.C_final _ | A.C_missing -> ()
  end

let on_timer r ctx ~label =
  if not r.finished then
    match A.cnode r.auto r.state with
    | A.C_input branches -> fire_deadline ctx r branches label 0
    | A.C_output _ | A.C_final _ | A.C_missing -> ()

let handlers_of r =
  {
    Engine.on_start = (fun ctx -> on_start r ctx);
    on_receive = (fun ctx ~src msg -> on_receive r ctx ~src msg);
    on_timer = (fun ctx ~label -> on_timer r ctx ~label);
  }

let handlers auto inst =
  let r = make auto inst in
  (handlers_of r, r)

let reset r inst =
  r.inst <- inst;
  Store.reset r.sstore ~clocks:(A.clock_names r.auto)
    ~datas:(A.data_names r.auto);
  Pool.clear r.pool;
  r.state <- A.initial_index r.auto;
  r.armed <- [||];
  r.finished <- false

let instantiate t inst pid = handlers_of (make t.(pid) inst)
