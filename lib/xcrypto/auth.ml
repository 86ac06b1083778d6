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

let reset reg ~seed =
  Ids.clear reg.keys;
  Sim.Rng.reseed reg.rng ~seed

(* One scratch buffer per domain, where a signer's key prefix and every
   statement signed or checked are written and hashed in place. It starts
   at 256 bytes and grows to fit the longest statement it has seen. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

(* The statement writers' helpers: each writes its piece at [pos] only if
   the whole piece fits, and returns the position after it either way, so
   a writer built from them returns a statement's full length. *)
let put_char buf pos c =
  if pos < Bytes.length buf then Bytes.unsafe_set buf pos c;
  pos + 1

let put_string buf pos s =
  let n = String.length s in
  if pos + n <= Bytes.length buf then Bytes.unsafe_blit_string s 0 buf pos n;
  pos + n

(* [string_of_int n], written in place; digits are taken from the negative
   of [n] so that [min_int] needs no special case *)
let put_int buf pos n =
  let neg = if n < 0 then n else -n in
  let rec width m w = if m > -10 then w else width (m / 10) (w + 1) in
  let digits = width neg 1 in
  let w = if n < 0 then digits + 1 else digits in
  if pos + w <= Bytes.length buf then begin
    if n < 0 then Bytes.unsafe_set buf pos '-';
    let m = ref neg in
    for i = pos + w - 1 downto pos + w - digits do
      Bytes.unsafe_set buf i (Char.unsafe_chr (48 - (!m mod 10)));
      m := !m / 10
    done
  end;
  pos + w

(* Writes [v]'s statement into the scratch buffer [r], growing it until
   the statement fits, and returns its length; the statement is then the
   first bytes of [!r]. *)
let rec written r put v =
  let buf = !r in
  let len = put buf v in
  if len <= Bytes.length buf then len
  else begin
    r := Bytes.create (max len (2 * Bytes.length buf));
    written r put v
  end

(* The writer measures the statement first, into an empty buffer, so a
   writer may itself call [statement] (as a value serialiser behind a
   memo does) without sharing a buffer. *)
let statement put v =
  let buf = Bytes.create (put Bytes.empty v) in
  ignore (put buf v);
  Bytes.unsafe_to_string buf

let register reg id =
  if Ids.mem reg.keys id then
    invalid_arg (Printf.sprintf "Auth.register: id %d already registered" id);
  (* The secret is "sk-<id>-<x>-<y>" in hex, with [y] drawn before [x]:
     the order of a right-to-left-evaluated Printf call, which every
     pinned MAC depends on. The whole prefix is written into the scratch
     buffer and hashed in one pass. *)
  let y = Sim.Rng.next_int64 reg.rng in
  let x = Sim.Rng.next_int64 reg.rng in
  (* at most 3 + 20 + 1 + 16 + 1 + 16 + 1 + 20 + 1 = 79 bytes, which the
     scratch buffer always holds *)
  let buf = !(Domain.DLS.get scratch) in
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

(* The statement is hashed where it was written: signing allocates the
   digest, the signature and the signed record, and checking nothing. *)
let sign_value signer ~put payload =
  let r = Domain.DLS.get scratch in
  let len = written r put payload in
  let mac = Hash.finish_bytes signer.key !r ~len in
  { payload; author = signer.sid; signature = { claimed = signer.sid; mac } }

let verify_value reg ~put sv =
  sv.signature.claimed = sv.author
  &&
  match Ids.find reg.keys sv.author with
  | signer ->
      let r = Domain.DLS.get scratch in
      let len = written r put sv.payload in
      Hash.matches_bytes signer.key !r ~len sv.signature.mac
  | exception Not_found -> false

let forge_value ~author payload =
  { payload; author; signature = forged author }
