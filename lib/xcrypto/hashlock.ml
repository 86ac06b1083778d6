type preimage = string
type lock = Hash.t

(* "pre-<x><y>" in hex, with [y] drawn before [x]: the order of a
   right-to-left-evaluated Printf call, which every pinned preimage
   depends on. *)
let fresh rng =
  let y = Sim.Rng.next_int64 rng in
  let x = Sim.Rng.next_int64 rng in
  String.concat "" [ "pre-"; Hash.hex64 x; Hash.hex64 y ]

let lock_of p = Hash.of_string p
let matches l p = Hash.equal l (Hash.of_string p)
let pp_lock ppf l = Fmt.pf ppf "lock<%s>" (Hash.short l)
let bogus_preimage () = "bogus-preimage"
