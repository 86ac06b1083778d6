(** Wire messages of the two cross-chain-deal commit protocols. *)

type vote_body = { v_party : int; v_deal : int }
(** A party's signed commitment to the deal. *)

type cb_body = { c_deal : int; c_commit : bool }
(** The certified blockchain's decision certificate. *)

type t =
  | Deposit of { arc : int }  (** party → arc escrow: fund my leg *)
  | Escrowed_notice of { arc : int }
      (** arc escrow → payee (and → certifier under CBC): the leg is
          funded — the on-chain observability of the HLS escrow phase *)
  | Votes of vote_body Xcrypto.Auth.signed list
      (** party → party gossip along deal arcs *)
  | Claim of { arc : int; votes : vote_body Xcrypto.Auth.signed list }
      (** payee → escrow: full vote set redeems the leg (timelock proto) *)
  | Paid of { arc : int }  (** escrow → payee *)
  | Refund of { arc : int }  (** escrow → payer *)
  | Cb_vote of vote_body Xcrypto.Auth.signed  (** party → certified chain *)
  | Cb_cert of cb_body Xcrypto.Auth.signed
      (** certified chain → everyone: commit or abort *)

let tag = function
  | Deposit _ -> "deposit"
  | Escrowed_notice _ -> "escrowed"
  | Votes _ -> "votes"
  | Claim _ -> "claim"
  | Paid _ -> "paid"
  | Refund _ -> "refund"
  | Cb_vote _ -> "cb-vote"
  | Cb_cert _ -> "cb-cert"

(* The signed statements' writers (see {!Xcrypto.Auth.sign_value}):
   "dvote|<party>|<deal>" and "dcb|<deal>|<true or false>". *)
module A = Xcrypto.Auth

let ser_vote buf (v : vote_body) =
  let pos = A.put_char buf (A.put_string buf 0 "dvote") '|' in
  let pos = A.put_char buf (A.put_int buf pos v.v_party) '|' in
  A.put_int buf pos v.v_deal

let ser_cb buf (c : cb_body) =
  let pos = A.put_char buf (A.put_string buf 0 "dcb") '|' in
  let pos = A.put_char buf (A.put_int buf pos c.c_deal) '|' in
  A.put_string buf pos (string_of_bool c.c_commit)
