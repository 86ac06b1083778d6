type id = int
type signature = { claimed : id; mac : Hash.t }

(* A key is the hash state after absorbing the signer's prefix
   "<secret>|<id>|", so a MAC hashes only the message bytes. The secret
   string itself is not kept. *)
type registry = { keys : (id, Hash.state) Hashtbl.t; rng : Sim.Rng.t }
type signer = { sid : id; key : Hash.state }

let create ~seed = { keys = Hashtbl.create 16; rng = Sim.Rng.create ~seed }

let register reg id =
  if Hashtbl.mem reg.keys id then
    invalid_arg (Printf.sprintf "Auth.register: id %d already registered" id);
  (* The secret is "sk-<id>-<x>-<y>" in hex, with [y] drawn before [x]:
     the order of a right-to-left-evaluated Printf call, which every
     pinned MAC depends on. *)
  let y = Sim.Rng.next_int64 reg.rng in
  let x = Sim.Rng.next_int64 reg.rng in
  let sid = string_of_int id in
  let key =
    List.fold_left Hash.feed Hash.start
      [ "sk-"; sid; "-"; Hash.hex64 x; "-"; Hash.hex64 y; "|"; sid; "|" ]
  in
  Hashtbl.add reg.keys id key;
  { sid = id; key }

let signer_id s = s.sid
let mac key msg = Hash.finish (Hash.feed key msg)
let sign s msg = { claimed = s.sid; mac = mac s.key msg }

let verify reg id msg s =
  s.claimed = id
  &&
  match Hashtbl.find_opt reg.keys id with
  | None -> false
  | Some key -> Hash.equal s.mac (mac key msg)

let forged id = { claimed = id; mac = Hash.of_string "forged" }

let pp_signature ppf s = Fmt.pf ppf "sig<%d:%s>" s.claimed (Hash.short s.mac)

type 'a signed = { payload : 'a; author : id; signature : signature }

let sign_value signer ~ser payload =
  {
    payload;
    author = signer.sid;
    signature = sign signer (ser payload);
  }

let verify_value reg ~ser sv =
  verify reg sv.author (ser sv.payload) sv.signature

let forge_value ~author payload =
  { payload; author; signature = forged author }
