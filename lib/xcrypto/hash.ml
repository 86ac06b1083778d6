(* A state is the two FNV lanes before the final avalanche, and a digest
   the two lanes after it, each packed little-endian into one 16-byte
   string: a kept state (a signer's key) or digest (a MAC) is then a
   single block with no boxed int64s. *)
type t = string
type state = string

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let[@inline] lanes a b =
  let buf = Bytes.create 16 in
  Bytes.set_int64_le buf 0 a;
  Bytes.set_int64_le buf 8 b;
  Bytes.unsafe_to_string buf

let start = lanes fnv_offset (Int64.logxor fnv_offset 0x9E3779B97F4A7C15L)

(* Both lanes in one closure-free loop over the first [len] bytes, so
   ocamlopt keeps the accumulators unboxed: only the returned state
   allocates. *)
let feed_sub st s len =
  let a = ref (String.get_int64_le st 0) and b = ref (String.get_int64_le st 8) in
  for i = 0 to len - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    a := Int64.mul (Int64.logxor !a c) fnv_prime;
    b := Int64.mul (Int64.logxor !b c) fnv_prime
  done;
  lanes !a !b

let feed st s = feed_sub st s (String.length s)

(* the buffer is only read, and not kept past the call *)
let feed_bytes st buf ~len =
  if len < 0 || len > Bytes.length buf then invalid_arg "Hash.feed_bytes";
  feed_sub st (Bytes.unsafe_to_string buf) len

(* final avalanche (splitmix-style) to decorrelate the two lanes *)
let[@inline] avalanche z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  Int64.(logxor z (shift_right_logical z 31))

let finish st =
  lanes
    (avalanche (String.get_int64_le st 0))
    (avalanche (String.get_int64_le st 8))

let of_string s = finish (feed start s)

(* [feed] and [finish] fused over the first [len] bytes: only the digest
   allocates. *)
let finish_sub st s len =
  let a = ref (String.get_int64_le st 0) and b = ref (String.get_int64_le st 8) in
  for i = 0 to len - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    a := Int64.mul (Int64.logxor !a c) fnv_prime;
    b := Int64.mul (Int64.logxor !b c) fnv_prime
  done;
  lanes (avalanche !a) (avalanche !b)

let finish_bytes st buf ~len =
  if len < 0 || len > Bytes.length buf then invalid_arg "Hash.finish_bytes";
  finish_sub st (Bytes.unsafe_to_string buf) len

(* [feed] and [finish] fused, the digest compared lane by lane as it is
   made: the lanes stay in registers, so nothing is allocated. *)
let matches_sub st s len d =
  let a = ref (String.get_int64_le st 0) and b = ref (String.get_int64_le st 8) in
  for i = 0 to len - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    a := Int64.mul (Int64.logxor !a c) fnv_prime;
    b := Int64.mul (Int64.logxor !b c) fnv_prime
  done;
  (avalanche !a : int64) = String.get_int64_le d 0
  && (avalanche !b : int64) = String.get_int64_le d 8

let matches st s d = matches_sub st s (String.length s) d

let matches_bytes st buf ~len d =
  if len < 0 || len > Bytes.length buf then invalid_arg "Hash.matches_bytes";
  matches_sub st (Bytes.unsafe_to_string buf) len d

let hex_digits = "0123456789abcdef"

(* Writes the low [width] nibbles of [x] into [buf] at [pos], most
   significant first. *)
let put_hex buf ~pos ~width x =
  for i = 0 to width - 1 do
    let nibble =
      Int64.to_int
        (Int64.logand (Int64.shift_right_logical x (4 * (width - 1 - i))) 15L)
    in
    Bytes.unsafe_set buf (pos + i) hex_digits.[nibble]
  done

let rec hex_width x w =
  if w < 16 && not (Int64.equal (Int64.shift_right_logical x (4 * w)) 0L)
  then hex_width x (w + 1)
  else w

let put_hex64 buf ~pos x =
  let w = max 1 (hex_width x 0) in
  put_hex buf ~pos ~width:w x;
  pos + w

let hex64 x =
  let buf = Bytes.create (max 1 (hex_width x 0)) in
  ignore (put_hex64 buf ~pos:0 x);
  Bytes.unsafe_to_string buf

let to_hex t =
  let buf = Bytes.create 32 in
  put_hex buf ~pos:0 ~width:16 (String.get_int64_le t 0);
  put_hex buf ~pos:16 ~width:16 (String.get_int64_le t 8);
  Bytes.unsafe_to_string buf

let equal = String.equal

let short t = String.sub (to_hex t) 0 8
