(* The 64-bit state lives unboxed in an 8-byte buffer: a draw reads,
   advances and writes it back, and callers that reduce the output to an
   int or a float never box an int64. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 s;
  g

let create ~seed = of_state (mix64 (Int64.of_int seed))
let reseed g ~seed = Bytes.set_int64_le g 0 (mix64 (Int64.of_int seed))

let[@inline] step g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix64 s

let next_int64 g = step g
let split g = of_state (mix64 (step g))

(* The state after [k + 1] steps is [s + (k + 1) * gamma] (mod 2^64), so
   the [k]-th split is a pure function of [k]: no need to take the
   [k] splits before it. *)
let split_nth g k =
  if k < 0 then invalid_arg "Rng.split_nth: negative index";
  let s =
    Int64.add (Bytes.get_int64_le g 0)
      (Int64.mul (Int64.of_int (k + 1)) golden_gamma)
  in
  of_state (mix64 (mix64 s))

let copy = Bytes.copy

(* Rejection sampling on the low 62 bits to avoid modulo bias. *)
let rec draw_below g bound =
  let r = Int64.to_int (Int64.logand (step g) 0x3FFF_FFFF_FFFF_FFFFL) in
  let v = r mod bound in
  if r - v > (1 lsl 62) - bound then draw_below g bound else v

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below g bound

let int_in g ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (step g) 1L = 1L

let[@inline] float g x =
  let r = Int64.to_float (Int64.shift_right_logical (step g) 11) in
  x *. (r /. 9007199254740992.0)

let choose g a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int g (Array.length a))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential_ticks g ~mean =
  if mean <= 0 then 1
  else begin
    (* Geometric with success probability 1/mean, via inversion on a uniform
       float; clamped to [1, 50*mean] to keep schedules finite. *)
    let u = float g 1.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    let v = int_of_float (ceil (-.float_of_int mean *. log u)) in
    let v = if v < 1 then 1 else v in
    Stdlib.min v (50 * mean)
  end
