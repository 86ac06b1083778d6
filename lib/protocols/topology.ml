type t = { hops : int; mutable aux_count : int }

type role =
  | Alice
  | Bob
  | Connector of int
  | Escrow of int
  | Aux of int

let create ~hops =
  if hops < 1 then invalid_arg "Topology.create: need at least one escrow";
  { hops; aux_count = 0 }

let hops t = t.hops

let customer t i =
  if i < 0 || i > t.hops then invalid_arg "Topology.customer: out of range";
  i

let escrow t i =
  if i < 0 || i >= t.hops then invalid_arg "Topology.escrow: out of range";
  t.hops + 1 + i

let alice t = customer t 0
let bob t = customer t t.hops
let aux_base t = (2 * t.hops) + 1
let payment_count t = (2 * t.hops) + 1
let register_aux t k = t.aux_count <- Stdlib.max t.aux_count (k + 1)

let role_of t pid =
  if pid < 0 then None
  else if pid = 0 then Some Alice
  else if pid = t.hops then Some Bob
  else if pid < t.hops then Some (Connector pid)
  else if pid <= 2 * t.hops then Some (Escrow (pid - t.hops - 1))
  else
    let k = pid - aux_base t in
    if k < t.aux_count then Some (Aux k) else None

let rec range lo hi = if lo > hi then [] else lo :: range (lo + 1) hi
let customers t = List.map (customer t) (range 0 t.hops)
let escrows t = List.map (escrow t) (range 0 (t.hops - 1))

let customer_index t pid = if pid >= 0 && pid <= t.hops then pid else -1

let escrow_index t pid =
  let i = pid - t.hops - 1 in
  if i >= 0 && i < t.hops then Some i else None

let role_name t pid =
  match role_of t pid with
  | Some Alice -> "alice"
  | Some Bob -> "bob"
  | Some (Connector i) -> Printf.sprintf "chloe%d" i
  | Some (Escrow i) -> Printf.sprintf "e%d" i
  | Some (Aux i) -> Printf.sprintf "tm%d" i
  | None -> Printf.sprintf "pid%d" pid

let pid_of_name t s =
  let index prefix =
    let k = String.length prefix and n = String.length s in
    if n > k && String.sub s 0 k = prefix then
      int_of_string_opt (String.sub s k (n - k))
    else None
  in
  match (s, index "chloe", index "e") with
  | "alice", _, _ -> Some (alice t)
  | "bob", _, _ -> Some (bob t)
  | _, Some i, _ when i >= 0 && i <= t.hops -> Some (customer t i)
  | _, _, Some i when i >= 0 && i < t.hops -> Some (escrow t i)
  | _ -> None

let pp ppf t =
  Fmt.pf ppf "chain(n=%d): c0" t.hops;
  for i = 0 to t.hops - 1 do
    Fmt.pf ppf " - e%d - c%d" i (i + 1)
  done
