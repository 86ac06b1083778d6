type state = string
type sender = Pool.sender = One of int | Among of int array | Any

type ('i, 'msg, 'obs) guard =
  | Receive of { from_ : sender; describe : string; accept : 'i -> 'msg -> bool }
  | Deadline of { base : string; offset : Sim.Sim_time.t; timer : string option }
  | At of { local : Sim.Sim_time.t }

type ('i, 'msg, 'obs) branch = {
  guard : ('i, 'msg, 'obs) guard;
  save_msg : string option;
  save_now : string list;
  b_act :
    'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg option -> unit;
  next : state;
}

type ('i, 'msg, 'obs) node =
  | Output of {
      to_ : int;
      absolute : bool;
      message : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg;
      o_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
      next : state;
    }
  | Input of ('i, 'msg, 'obs) branch list
  | Final of {
      f_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
    }

(* The compiled form: states are dense ints in declaration order, with one
   extra [C_missing] index per unknown transition target (entering one is a
   run-time error, as {!check} reports statically); every [next] is resolved
   here, and clock and data variables are Store slots. *)
type ('i, 'msg, 'obs) cguard =
  | C_receive of { from_ : sender; accept : 'i -> 'msg -> bool }
  | C_deadline of { base : int; offset : Sim.Sim_time.t; label : string; named : bool }

type ('i, 'msg, 'obs) cbranch = {
  cguard : ('i, 'msg, 'obs) cguard;
  c_save_msg : int;
  c_save_now : int array;
  c_act :
    'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg option -> unit;
  c_next : int;
}

type ('i, 'msg, 'obs) cnode =
  | C_output of {
      to_ : int;
      absolute : bool;
      message : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg;
      o_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
      next : int;
    }
  | C_input of ('i, 'msg, 'obs) cbranch array
  | C_final of {
      f_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
    }
  | C_missing

type ('i, 'msg, 'obs) t = {
  name : string;
  initial : state;
  born : string list;
  nodes : (state * ('i, 'msg, 'obs) node) array;
  names : state array;  (* declared states, then missing targets *)
  declared : int;
  cnodes : ('i, 'msg, 'obs) cnode array;
  init : int;
  clock_names : string array;
  data_names : string array;
}

(* the length test is inline and settles most mismatches without a call *)
let same a b = String.length a = String.length b && String.equal a b

let rec scan_names names st i stop =
  if i >= stop then -1
  else if same names.(i) st then i
  else scan_names names st (i + 1) stop

(* a name table that grows on first use, in first-use order *)
type table = { mutable items : string array; mutable count : int }

let push tb s =
  if tb.count = Array.length tb.items then begin
    let items = Array.make (max 1 (2 * tb.count)) "" in
    Array.blit tb.items 0 items 0 tb.count;
    tb.items <- items
  end;
  tb.items.(tb.count) <- s;
  tb.count <- tb.count + 1;
  tb.count - 1

let intern tb s =
  let i = scan_names tb.items s 0 tb.count in
  if i >= 0 then i else push tb s

let contents tb =
  if tb.count = Array.length tb.items then tb.items
  else Array.sub tb.items 0 tb.count

type tables = { states : table; clocks : table; datas : table }

let compile_branch tbs st idx b =
  let cguard =
    match b.guard with
    | Receive { from_; accept; _ } -> C_receive { from_; accept }
    | Deadline { base; offset; timer } ->
        let label = Option.value timer ~default:(st ^ "#" ^ string_of_int idx) in
        C_deadline
          { base = intern tbs.clocks base; offset; label; named = timer <> None }
    | At { local } ->
        C_deadline
          { base = -1; offset = local; label = st ^ "#" ^ string_of_int idx; named = false }
  in
  {
    cguard;
    c_save_msg =
      (match b.save_msg with None -> -1 | Some v -> intern tbs.datas v);
    c_save_now =
      (match b.save_now with
      | [] -> [||]
      | vars -> Array.of_list (List.map (intern tbs.clocks) vars));
    c_act = b.b_act;
    c_next = intern tbs.states b.next;
  }

let rec fill_branches tbs st arr idx = function
  | [] -> ()
  | b :: rest ->
      arr.(idx) <- compile_branch tbs st idx b;
      fill_branches tbs st arr (idx + 1) rest

let compile_node tbs st = function
  | Output { to_; absolute; message; o_act; next } ->
      C_output { to_; absolute; message; o_act; next = intern tbs.states next }
  | Input [] -> C_input [||]
  | Input (b :: rest as branches) ->
      let arr =
        Array.make (List.length branches) (compile_branch tbs st 0 b)
      in
      fill_branches tbs st arr 1 rest;
      C_input arr
  | Final { f_act } -> C_final { f_act }

let rec fill_nodes tbs cnodes i = function
  | [] -> ()
  | (st, node) :: rest ->
      cnodes.(i) <- compile_node tbs st node;
      fill_nodes tbs cnodes (i + 1) rest

let make ~name ?(born = []) ~initial ~nodes () =
  let n = List.length nodes in
  (* declared states take the first [n] entries of [states] *)
  let states = { items = Array.make n ""; count = 0 } in
  List.iter
    (fun (st, _) ->
      if scan_names states.items st 0 states.count >= 0 then
        invalid_arg (Printf.sprintf "Automaton %s: duplicate state %s" name st);
      ignore (push states st))
    nodes;
  let init = scan_names states.items initial 0 n in
  if init < 0 then
    invalid_arg
      (Printf.sprintf "Automaton %s: unknown initial state %s" name initial);
  let tbs =
    {
      states;
      clocks = { items = [||]; count = 0 };
      datas = { items = [||]; count = 0 };
    }
  in
  if born <> [] then List.iter (fun v -> ignore (intern tbs.clocks v)) born;
  let cnodes = Array.make n C_missing in
  fill_nodes tbs cnodes 0 nodes;
  let cnodes =
    if states.count = n then cnodes
    else Array.append cnodes (Array.make (states.count - n) C_missing)
  in
  {
    name;
    initial;
    born;
    nodes = Array.of_list nodes;
    names = states.items;
    declared = n;
    cnodes;
    init;
    clock_names = contents tbs.clocks;
    data_names = contents tbs.datas;
  }

let name t = t.name
let born t = t.born

let node t st =
  let i = scan_names t.names st 0 t.declared in
  if i < 0 then None else Some (snd t.nodes.(i))

let states t = Array.to_list (Array.map fst t.nodes)
let initial_index t = t.init
let state_name t i = t.names.(i)
let cnode t i = t.cnodes.(i)
let clock_names t = t.clock_names
let data_names t = t.data_names

let rec arms_named branches label i =
  i < Array.length branches
  &&
  match branches.(i).cguard with
  | C_deadline { label = l; named = true; _ } when same l label -> true
  | C_deadline _ | C_receive _ -> arms_named branches label (i + 1)

let arms_named branches label = arms_named branches label 0

let rec scan_receive branches inst pool i =
  if i >= Array.length branches then -1
  else
    match branches.(i).cguard with
    | C_receive { from_; accept } when Pool.find pool ~from_ ~accept inst -> i
    | C_receive _ | C_deadline _ -> scan_receive branches inst pool (i + 1)

let match_receive branches inst pool = scan_receive branches inst pool 0

type check_error =
  | Unknown_target of { from_ : state; target : state }
  | Empty_input of state
  | Unassigned_clock of { at : state; var : string }
  | No_final_reachable
  | Unreachable_state of state

let pp_check_error ppf = function
  | Unknown_target { from_; target } ->
      Fmt.pf ppf "transition from %s targets unknown state %s" from_ target
  | Empty_input st -> Fmt.pf ppf "input state %s has no outgoing transition" st
  | Unassigned_clock { at; var } ->
      Fmt.pf ppf
        "deadline guard at %s reads clock variable %s not assigned on every \
         incoming path"
        at var
  | No_final_reachable -> Fmt.string ppf "no final state is reachable"
  | Unreachable_state st -> Fmt.pf ppf "state %s is unreachable" st

let successors node =
  match node with
  | Output { next; _ } -> [ next ]
  | Input branches -> List.map (fun b -> b.next) branches
  | Final _ -> []

module SS = Set.Make (String)

(* Forward dataflow: for each state, the set of clock vars assigned on every
   path from the initial state (must-analysis; meet = intersection). *)
let must_assigned t =
  let all_vars =
    Array.fold_left
      (fun acc (_, node) ->
        match node with
        | Input branches ->
            List.fold_left
              (fun acc b -> List.fold_left (fun a v -> SS.add v a) acc b.save_now)
              acc branches
        | Output _ | Final _ -> acc)
      SS.empty t.nodes
  in
  let assigned : (state, SS.t) Hashtbl.t = Hashtbl.create 16 in
  let get st = Option.value ~default:all_vars (Hashtbl.find_opt assigned st) in
  Hashtbl.replace assigned t.initial (SS.of_list t.born);
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (st, node) ->
        if Hashtbl.mem assigned st then begin
          let entry = get st in
          let propagate target gained =
            let flow = SS.union entry gained in
            let old = Hashtbl.find_opt assigned target in
            let updated =
              match old with None -> flow | Some o -> SS.inter o flow
            in
            let same =
              match old with None -> false | Some o -> SS.equal o updated
            in
            if not same then begin
              Hashtbl.replace assigned target updated;
              changed := true
            end
          in
          match node with
          | Output { next; _ } -> propagate next SS.empty
          | Input branches ->
              List.iter
                (fun b -> propagate b.next (SS.of_list b.save_now))
                branches
          | Final _ -> ()
        end)
      t.nodes
  done;
  get

let check t =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let known st = scan_names t.names st 0 t.declared >= 0 in
  Array.iter
    (fun (st, node) ->
      List.iter
        (fun target -> if not (known target) then err (Unknown_target { from_ = st; target }))
        (successors node);
      match node with
      | Input [] -> err (Empty_input st)
      | Input _ | Output _ | Final _ -> ())
    t.nodes;
  if !errors = [] then begin
    (* reachability *)
    let reachable = Hashtbl.create 16 in
    let rec visit st =
      if not (Hashtbl.mem reachable st) then begin
        Hashtbl.add reachable st ();
        match node t st with
        | Some n -> List.iter visit (successors n)
        | None -> ()
      end
    in
    visit t.initial;
    Array.iter
      (fun (st, _) ->
        if not (Hashtbl.mem reachable st) then err (Unreachable_state st))
      t.nodes;
    let final_reachable =
      Array.exists
        (fun (st, node) ->
          Hashtbl.mem reachable st
          && match node with Final _ -> true | _ -> false)
        t.nodes
    in
    if not final_reachable then err No_final_reachable;
    (* deadline guards read assigned clocks *)
    let assigned_at = must_assigned t in
    Array.iter
      (fun (st, node) ->
        if Hashtbl.mem reachable st then
          match node with
          | Input branches ->
              List.iter
                (fun b ->
                  match b.guard with
                  | Deadline { base; _ } ->
                      if not (SS.mem base (assigned_at st)) then
                        err (Unassigned_clock { at = st; var = base })
                  | At _ | Receive _ -> ())
                branches
          | Output _ | Final _ -> ())
      t.nodes
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let no_act3 _ _ _ = ()
let no_act4 _ _ _ _ = ()

let output ?(absolute = false) ~to_ ?(act = no_act3) ~message ~next () =
  Output { to_; absolute; message; o_act = act; next }

let input branches = Input branches
let final ?(act = no_act3) () = Final { f_act = act }

let on_receive ~from_ ?(describe = "msg") ~accept ?save_msg ?(save_now = [])
    ?(act = no_act4) ~next () =
  { guard = Receive { from_; describe; accept }; save_msg; save_now; b_act = act; next }

let on_deadline ~base ~offset ?timer ?(save_now = []) ?(act = no_act4) ~next () =
  {
    guard = Deadline { base; offset; timer };
    save_msg = None;
    save_now;
    b_act = act;
    next;
  }

let on_local_time ~at ~act ~next =
  { guard = At { local = at }; save_msg = None; save_now = []; b_act = act; next }

(* ------------------------------ edits -------------------------------- *)

let stall = "stall"

let rebuild ?initial ?(changed = []) ?(added = []) auto =
  let initial = Option.value initial ~default:auto.initial in
  let node st =
    match List.assoc_opt st changed with Some n -> n | None -> Option.get (node auto st)
  in
  make ~name:auto.name ~born:auto.born ~initial
    ~nodes:
      (List.map (fun st -> (st, node st)) (states auto) @ added @ [ (stall, Input []) ])
    ()

let redirect auto st next =
  match node auto st with
  | Some (Output { to_; absolute; message; o_act; _ }) ->
      Some (st, Output { to_; absolute; message; o_act; next })
  | _ -> None

let rec outputs auto st =
  match node auto st with
  | Some (Output { to_; absolute; next; _ }) -> (st, (to_, absolute)) :: outputs auto next
  | _ -> []

let script name dsts ?(first = no_act3) ?(next = stall) message =
  let state j = if j = List.length dsts then next else name ^ string_of_int j in
  List.mapi
    (fun j (to_, absolute) ->
      ( state j,
        Output
          {
            to_;
            absolute;
            message = message to_;
            o_act = (if j = 0 then first else no_act3);
            next = state (j + 1);
          } ))
    dsts

let dot_escape s =
  String.map (fun c -> if c = '"' then '\'' else c) s

let to_dot t =
  let buf = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "digraph \"%s\" {\n  rankdir=LR;\n  node [fontsize=10];\n"
    (dot_escape t.name);
  Array.iter
    (fun (st, node) ->
      match node with
      | Output _ ->
          bpf "  \"%s\" [shape=box style=filled fillcolor=lightgrey];\n"
            (dot_escape st)
      | Input _ -> bpf "  \"%s\" [shape=circle];\n" (dot_escape st)
      | Final _ -> bpf "  \"%s\" [shape=doublecircle];\n" (dot_escape st))
    t.nodes;
  bpf "  \"__start\" [shape=point];\n  \"__start\" -> \"%s\";\n"
    (dot_escape t.initial);
  Array.iter
    (fun (st, node) ->
      match node with
      | Output { to_; absolute; next; _ } ->
          bpf "  \"%s\" -> \"%s\" [label=\"s(%s%d, ·)\"];\n" (dot_escape st)
            (dot_escape next) (if absolute then "engine " else "") to_
      | Input branches ->
          List.iter
            (fun b ->
              let label =
                match b.guard with
                | Receive { from_; describe; _ } ->
                    Printf.sprintf "r(%s, %s)"
                      (match from_ with
                      | One p -> string_of_int p
                      | Among ps ->
                          String.concat "|" (Array.to_list (Array.map string_of_int ps))
                      | Any -> "*")
                      describe
                | Deadline { base; offset; timer } ->
                    Printf.sprintf "%snow >= %s + %s"
                      (match timer with Some t -> t ^ ": " | None -> "")
                      base (Sim.Sim_time.to_string offset)
                | At { local } ->
                    Printf.sprintf "now >= %s" (Sim.Sim_time.to_string local)
              in
              let label =
                match b.save_now with
                | [] -> label
                | vars ->
                    label ^ "\\n"
                    ^ String.concat "; "
                        (List.map (fun v -> v ^ " := now") vars)
              in
              bpf "  \"%s\" -> \"%s\" [label=\"%s\"];\n" (dot_escape st)
                (dot_escape b.next) (dot_escape label))
            branches
      | Final _ -> ())
    t.nodes;
  bpf "}\n";
  Buffer.contents buf
