type t = int

let zero = 0
let infinity = max_int
let is_infinite t = t = max_int

let add a b =
  if a = max_int || b = max_int then max_int
  else
    let s = a + b in
    if s < 0 then max_int else s

let sub a b = if a = max_int then max_int else if a - b < 0 then 0 else a - b

(* ceil (t * num / den) without intermediate overflow for simulation-scale
   values: splits [t] into high and low parts around [den]. *)
let scale t ~num ~den =
  if den <= 0 then invalid_arg "Sim_time.scale: den must be positive";
  if num < 0 then invalid_arg "Sim_time.scale: num must be non-negative";
  if t = max_int then max_int
  else if num = 0 then 0
  else
    let q = t / den and r = t mod den in
    (* t*num/den = q*num + r*num/den; r < den so r*num is small when num is.
       Guard the multiplications explicitly. *)
    let mul_sat a b = if a <> 0 && b > max_int / a then max_int else a * b in
    let hi = mul_sat q num in
    let lo = mul_sat r num in
    let lo_q = (lo + den - 1) / den in
    add hi lo_q

let max = Stdlib.max
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b

let pp ppf t = if is_infinite t then Fmt.string ppf "inf" else Fmt.int ppf t
let to_string t = if is_infinite t then "inf" else string_of_int t
