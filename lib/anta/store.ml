(* Slot arrays, one per variable kind. An automaton's executor starts the
   store from the automaton's compiled variable tables ({!of_vars}) and
   reaches its variables by slot; the by-name API resolves a name by a
   linear scan of a table that is a handful of entries long, and a name
   not in the table grows it (copy-on-extend, so the automaton's shared
   tables are never written). *)
type 'msg t = {
  mutable cnames : string array;
  mutable clocks : Sim.Sim_time.t array;
  mutable cset : bool array;
  mutable dnames : string array;
  mutable datas : 'msg option array;
}

let of_vars ~clocks ~datas =
  {
    cnames = clocks;
    clocks = Array.make (Array.length clocks) Sim.Sim_time.zero;
    cset = Array.make (Array.length clocks) false;
    dnames = datas;
    datas = Array.make (Array.length datas) None;
  }

let reset t ~clocks ~datas =
  if t.cnames == clocks && t.dnames == datas then begin
    Array.fill t.clocks 0 (Array.length t.clocks) Sim.Sim_time.zero;
    Array.fill t.cset 0 (Array.length t.cset) false;
    Array.fill t.datas 0 (Array.length t.datas) None
  end
  else begin
    let fresh = of_vars ~clocks ~datas in
    t.cnames <- clocks;
    t.clocks <- fresh.clocks;
    t.cset <- fresh.cset;
    t.dnames <- datas;
    t.datas <- fresh.datas
  end

let rec slot names name i =
  if i >= Array.length names then -1
  else if String.equal names.(i) name then i
  else slot names name (i + 1)

let append a x = Array.append a [| x |]

let clock_slot t name =
  let i = slot t.cnames name 0 in
  if i >= 0 then i
  else begin
    t.cnames <- append t.cnames name;
    t.clocks <- append t.clocks Sim.Sim_time.zero;
    t.cset <- append t.cset false;
    Array.length t.cnames - 1
  end

let data_slot t name =
  let i = slot t.dnames name 0 in
  if i >= 0 then i
  else begin
    t.dnames <- append t.dnames name;
    t.datas <- append t.datas None;
    Array.length t.dnames - 1
  end

let set_clock_at t i v =
  t.clocks.(i) <- v;
  t.cset.(i) <- true

let clock_at t i =
  if t.cset.(i) then t.clocks.(i)
  else invalid_arg (Printf.sprintf "Anta.Store.clock: %s unset" t.cnames.(i))

let set_data_at t i v = t.datas.(i) <- Some v
let set_clock t name v = set_clock_at t (clock_slot t name) v

let clock t name =
  let i = slot t.cnames name 0 in
  if i >= 0 && t.cset.(i) then t.clocks.(i)
  else invalid_arg (Printf.sprintf "Anta.Store.clock: %s unset" name)

let set_data t name v = set_data_at t (data_slot t name) v

let data_opt t name =
  let i = slot t.dnames name 0 in
  if i >= 0 then t.datas.(i) else None

let data t name =
  match data_opt t name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Anta.Store.data: %s unset" name)

let set_names names is_set =
  let acc = ref [] in
  Array.iteri (fun i n -> if is_set i then acc := n :: !acc) names;
  List.sort compare !acc

let clock_vars t = set_names t.cnames (fun i -> t.cset.(i))
let data_vars t = set_names t.dnames (fun i -> Option.is_some t.datas.(i))
