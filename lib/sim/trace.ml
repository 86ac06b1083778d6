type ('msg, 'obs) entry =
  | Sent of { t : Sim_time.t; src : int; dst : int; tag : string; msg : 'msg }
  | Delivered of {
      t : Sim_time.t;
      sent_at : Sim_time.t;
      src : int;
      dst : int;
      tag : string;
      msg : 'msg;
      sent_seq : int;
    }
  | Timer_set of {
      t : Sim_time.t;
      owner : int;
      label : string;
      local_deadline : Sim_time.t;
      global_fire : Sim_time.t;
    }
  | Timer_fired of {
      t : Sim_time.t;
      owner : int;
      label : string;
      set_seq : int;
      deferred : bool;
    }
  | Observed of { t : Sim_time.t; pid : int; obs : 'obs }
  | Halted of { t : Sim_time.t; pid : int }
  | Crashed of { t : Sim_time.t; pid : int; recover_at : Sim_time.t option }
  | Recovered of { t : Sim_time.t; pid : int }

type ('msg, 'obs) t = {
  capacity : int option;
  mutable rev_entries : ('msg, 'obs) entry list; (* unbounded mode *)
  mutable ring : ('msg, 'obs) entry option array; (* bounded mode *)
  mutable head : int; (* ring index of the oldest kept entry *)
  mutable kept : int;
  mutable count : int; (* total recorded, including dropped *)
  mutable sends : int; (* [Sent] entries recorded, including dropped *)
  mutable hooks : (('msg, 'obs) entry -> unit) list; (* registration order *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 0 ->
      invalid_arg "Trace.create: capacity must be non-negative"
  | _ -> ());
  {
    capacity;
    rev_entries = [];
    ring = (match capacity with None -> [||] | Some c -> Array.make c None);
    head = 0;
    kept = 0;
    count = 0;
    sends = 0;
    hooks = [];
  }

let on_record t f = t.hooks <- t.hooks @ [ f ]

(* a plain recursion: [List.iter (fun f -> f e)] would allocate a closure
   per record *)
let rec run_hooks e = function
  | [] -> ()
  | f :: rest ->
      f e;
      run_hooks e rest

let record t e =
  run_hooks e t.hooks;
  (match e with Sent _ -> t.sends <- t.sends + 1 | _ -> ());
  (match t.capacity with
  | None -> t.rev_entries <- e :: t.rev_entries
  | Some 0 -> () (* hooks only: nothing is kept *)
  | Some cap ->
      if t.kept = cap then begin
        (* overwrite the oldest: the window slides forward *)
        t.ring.(t.head) <- Some e;
        t.head <- (t.head + 1) mod cap
      end
      else begin
        t.ring.((t.head + t.kept) mod cap) <- Some e;
        t.kept <- t.kept + 1
      end);
  t.count <- t.count + 1

(* Newest-first fold covering both storage modes; chronological consumers
   cons onto their accumulator. *)
let fold_newest f acc t =
  match t.capacity with
  | None -> List.fold_left f acc t.rev_entries
  | Some cap ->
      let acc = ref acc in
      for i = t.kept - 1 downto 0 do
        match t.ring.((t.head + i) mod cap) with
        | Some e -> acc := f !acc e
        | None -> ()
      done;
      !acc

let to_list t = fold_newest (fun acc e -> e :: acc) [] t
let length t = t.count
let dropped_count t =
  match t.capacity with None -> 0 | Some _ -> t.count - t.kept

let time_of = function
  | Sent { t; _ }
  | Delivered { t; _ }
  | Timer_set { t; _ }
  | Timer_fired { t; _ }
  | Observed { t; _ }
  | Halted { t; _ }
  | Crashed { t; _ }
  | Recovered { t; _ } ->
      t

(* Folding newest-first (consing onto the accumulator) yields chronological
   order without materialising the O(n) intermediate list that [to_list]
   would. *)
let observations t =
  fold_newest
    (fun acc e ->
      match e with Observed { t; pid; obs } -> (t, pid, obs) :: acc | _ -> acc)
    [] t

let message_count t = t.sends

let last_time t =
  fold_newest (fun acc e -> match acc with None -> Some (time_of e) | some -> some)
    None t
  |> Option.value ~default:Sim_time.zero

let pp ~msg ~obs ppf t =
  let pp_entry ppf = function
    | Sent { t; src; dst; tag; msg = m } ->
        Fmt.pf ppf "%a  %d -> %d  send [%s] %a" Sim_time.pp t src dst tag msg m
    | Delivered { t; sent_at; src; dst; tag; msg = m; _ } ->
        Fmt.pf ppf "%a  %d -> %d  recv [%s] %a (sent %a)" Sim_time.pp t src dst
          tag msg m Sim_time.pp sent_at
    | Timer_set { t; owner; label; local_deadline; global_fire } ->
        Fmt.pf ppf "%a  %d       timer-set %s @local %a (fires %a)" Sim_time.pp
          t owner label Sim_time.pp local_deadline Sim_time.pp global_fire
    | Timer_fired { t; owner; label; _ } ->
        Fmt.pf ppf "%a  %d       timer %s" Sim_time.pp t owner label
    | Observed { t; pid; obs = o } ->
        Fmt.pf ppf "%a  %d       obs %a" Sim_time.pp t pid obs o
    | Halted { t; pid } -> Fmt.pf ppf "%a  %d       halted" Sim_time.pp t pid
    | Crashed { t; pid; recover_at } ->
        Fmt.pf ppf "%a  %d       crashed%a" Sim_time.pp t pid
          Fmt.(option (any " (recovers " ++ Sim_time.pp ++ any ")"))
          recover_at
    | Recovered { t; pid } ->
        Fmt.pf ppf "%a  %d       recovered" Sim_time.pp t pid
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_entry) (to_list t)

(* The one writer of a trace entry as a JSON object. [seq] is the entry's
   position in the whole trace, so a bounded trace numbers its kept window
   from [dropped_count]. *)
let add_entry_json buf ~msg ~obs seq entry =
  let add fmt = Printf.bprintf buf fmt and esc = Obsv.Metrics.json_escape in
  match entry with
  | Sent { t; src; dst; tag; msg = m } ->
      add
        {|{"seq":%d,"kind":"sent","t":%d,"src":%d,"dst":%d,"tag":"%s","msg":"%s"}|}
        seq t src dst (esc tag) (esc (msg m))
  | Delivered { t; sent_at; src; dst; tag; msg = m; _ } ->
      add
        {|{"seq":%d,"kind":"delivered","t":%d,"sent_at":%d,"src":%d,"dst":%d,"tag":"%s","msg":"%s"}|}
        seq t sent_at src dst (esc tag) (esc (msg m))
  | Timer_set { t; owner; label; local_deadline; global_fire } ->
      add
        {|{"seq":%d,"kind":"timer_set","t":%d,"owner":%d,"label":"%s","local_deadline":%s,"global_fire":%s}|}
        seq t owner (esc label)
        (if Sim_time.is_infinite local_deadline then {|"inf"|}
         else string_of_int local_deadline)
        (if Sim_time.is_infinite global_fire then {|"inf"|}
         else string_of_int global_fire)
  | Timer_fired { t; owner; label; _ } ->
      add {|{"seq":%d,"kind":"timer_fired","t":%d,"owner":%d,"label":"%s"}|}
        seq t owner (esc label)
  | Observed { t; pid; obs = o } ->
      add {|{"seq":%d,"kind":"observed","t":%d,"pid":%d,"obs":"%s"}|} seq t
        pid (esc (obs o))
  | Halted { t; pid } ->
      add {|{"seq":%d,"kind":"halted","t":%d,"pid":%d}|} seq t pid
  | Crashed { t; pid; recover_at } ->
      add {|{"seq":%d,"kind":"crashed","t":%d,"pid":%d,"recover_at":%s}|} seq
        t pid
        (match recover_at with None -> "null" | Some r -> string_of_int r)
  | Recovered { t; pid } ->
      add {|{"seq":%d,"kind":"recovered","t":%d,"pid":%d}|} seq t pid

(* the kept entries in order, each with its [seq] *)
let iter_numbered f t =
  let first = dropped_count t in
  List.iteri (fun i e -> f (first + i) e) (to_list t)

let to_jsonl ~msg ~obs t =
  let buf = Buffer.create 1024 in
  iter_numbered
    (fun seq e ->
      add_entry_json buf ~msg ~obs seq e;
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let ring_json ~msg ~obs t =
  let buf = Buffer.create 1024 in
  let first = dropped_count t in
  Printf.bprintf buf {|{"capacity":%s,"recorded":%d,"dropped":%d,"window":[|}
    (match t.capacity with None -> "null" | Some c -> string_of_int c)
    t.count first;
  iter_numbered
    (fun seq e ->
      if seq > first then Buffer.add_char buf ',';
      add_entry_json buf ~msg ~obs seq e)
    t;
  Buffer.add_string buf "]}";
  Buffer.contents buf
