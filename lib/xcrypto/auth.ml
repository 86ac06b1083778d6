type id = int
type signature = { claimed : id; mac : Hash.t }

(* A key is the hash state after absorbing the signer's prefix
   "<secret>|<id>|", so a MAC hashes only the message bytes. The secret
   string itself is not kept. The registry keeps each id's signer in an
   int-keyed table, so looking one up allocates nothing. *)
type signer = { sid : id; key : Hash.state }

module Ids = Sim.Int_table

type registry = { keys : signer Ids.t; rng : Sim.Rng.t }

let create ~seed = { keys = Ids.create 8; rng = Sim.Rng.create ~seed }

(* A key prefix is at most 3 + 20 + 1 + 16 + 1 + 16 + 1 + 20 + 1 = 79
   bytes. One scratch buffer per domain, so registries on different
   domains never share it. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 80)

let put_char buf pos c =
  Bytes.unsafe_set buf pos c;
  pos + 1

let put_string buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

(* [string_of_int n], written in place; digits are taken from the negative
   of [n] so that [min_int] needs no special case *)
let put_int buf pos n =
  let pos = if n < 0 then put_char buf pos '-' else pos in
  let neg = if n < 0 then n else -n in
  let rec width m w = if m > -10 then w else width (m / 10) (w + 1) in
  let w = width neg 1 in
  let m = ref neg in
  for i = w - 1 downto 0 do
    Bytes.unsafe_set buf (pos + i) (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  pos + w

let register reg id =
  if Ids.mem reg.keys id then
    invalid_arg (Printf.sprintf "Auth.register: id %d already registered" id);
  (* The secret is "sk-<id>-<x>-<y>" in hex, with [y] drawn before [x]:
     the order of a right-to-left-evaluated Printf call, which every
     pinned MAC depends on. The whole prefix is written into the scratch
     buffer and hashed in one pass. *)
  let y = Sim.Rng.next_int64 reg.rng in
  let x = Sim.Rng.next_int64 reg.rng in
  let buf = Domain.DLS.get scratch in
  let pos = put_string buf 0 "sk-" in
  let pos = put_int buf pos id in
  let pos = put_char buf pos '-' in
  let pos = Hash.put_hex64 buf ~pos x in
  let pos = put_char buf pos '-' in
  let pos = Hash.put_hex64 buf ~pos y in
  let pos = put_char buf pos '|' in
  let pos = put_int buf pos id in
  let pos = put_char buf pos '|' in
  let s = { sid = id; key = Hash.feed_bytes Hash.start buf ~len:pos } in
  Ids.add reg.keys id s;
  s

let signer_of reg id =
  match Ids.find reg.keys id with
  | s -> s
  | exception Not_found -> register reg id

let signer_id s = s.sid
let mac key msg = Hash.finish (Hash.feed key msg)
let sign s msg = { claimed = s.sid; mac = mac s.key msg }

(* allocation-free: the MAC is recomputed and compared in place *)
let verify reg id msg s =
  s.claimed = id
  &&
  match Ids.find reg.keys id with
  | signer -> Hash.matches signer.key msg s.mac
  | exception Not_found -> false

let forged id = { claimed = id; mac = Hash.of_string "forged" }

let signature_mac s = s.mac

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
