type promise_g = { g_escrow : int; g_customer : int; d : Sim.Sim_time.t }
type promise_p = { p_escrow : int; p_customer : int; a : Sim.Sim_time.t }
type chi_body = { x_payment : int; x_bob : int }
type funded_body = { f_escrow : int; f_payment : int; f_amount : int }
type decision_body = { dec_payment : int; dec_commit : bool }

type chain_tx =
  | Tx_funded of funded_body Xcrypto.Auth.signed
  | Tx_abort of { customer : int; payment : int }

type t =
  | Money of { amount : int }
  | Promise_g of promise_g Xcrypto.Auth.signed
  | Promise_p of promise_p Xcrypto.Auth.signed
  | Chi of chi_body Xcrypto.Auth.signed
  | Funded of funded_body Xcrypto.Auth.signed
  | Abort_req of { payment : int }
  | Tm_decision of decision_body Xcrypto.Auth.signed
  | Committee_decision of {
      commit : bool;
      cert : bool Consensus.Dls.decision_cert;
    }
  | Notary of bool Consensus.Dls.msg
  | Chain_gossip of chain_tx Consensus.Chain.msg
  | Htlc_setup of { lock : Xcrypto.Hashlock.lock; amount : int }
  | Htlc_claim of { preimage : Xcrypto.Hashlock.preimage }
  | Htlc_key of { preimage : Xcrypto.Hashlock.preimage }
  | Quorum_req of { item : int; req : quorum_req }
      (* a payment participant asks the shared committee for a verdict:
         one leg funded, or an abort request. Sent with absolute pids;
         content-trusted (the certificates flowing back are what carries
         cryptographic weight) *)
  | Quorum_msg of Quorum.Committee.msg
      (* intra-committee consensus traffic for one batching slot *)
  | Quorum_decision of {
      cert : Quorum.Committee.batch Consensus.Dls.decision_cert;
    }
      (* a batch certificate broadcast to every affected participant; each
         extracts its own item's verdict after verifying the signatures *)
  | Start
  | Traffic_done of { payment : int }
      (* load-scheduler control plane: a multiplexer wrapper reports that
         one participant of [payment] reached its terminal state *)

and quorum_req = Leg_funded of { escrow_index : int } | Abort_wanted

let tag = function
  | Money _ -> "money"
  | Promise_g _ -> "G"
  | Promise_p _ -> "P"
  | Chi _ -> "chi"
  | Funded _ -> "funded"
  | Abort_req _ -> "abort-req"
  | Tm_decision _ -> "decision"
  | Committee_decision _ -> "decision"
  | Notary (Consensus.Dls.Propose _) -> "notary:propose"
  | Notary (Consensus.Dls.Echo _) -> "notary:echo"
  | Notary (Consensus.Dls.Commit _) -> "notary:commit"
  | Notary (Consensus.Dls.New_round _) -> "notary:new-round"
  | Chain_gossip (Consensus.Chain.Submit _) -> "chain:submit"
  | Chain_gossip (Consensus.Chain.Announce _) -> "chain:block"
  | Htlc_setup _ -> "htlc-setup"
  | Htlc_claim _ -> "htlc-claim"
  | Htlc_key _ -> "htlc-key"
  | Quorum_req _ -> "quorum:req"
  | Quorum_msg m -> Quorum.Committee.tag_of_msg m
  | Quorum_decision _ -> "quorum:decision"
  | Start -> "start"
  | Traffic_done _ -> "traffic-done"

let pp ppf m =
  match m with
  | Money { amount } -> Fmt.pf ppf "$%d" amount
  | Promise_g sv ->
      let g = sv.Xcrypto.Auth.payload in
      Fmt.pf ppf "G(d=%a) e%d->c%d" Sim.Sim_time.pp g.d g.g_escrow g.g_customer
  | Promise_p sv ->
      let p = sv.Xcrypto.Auth.payload in
      Fmt.pf ppf "P(a=%a) e%d->c%d" Sim.Sim_time.pp p.a p.p_escrow p.p_customer
  | Chi sv ->
      let c = sv.Xcrypto.Auth.payload in
      Fmt.pf ppf "χ(pay=%d, bob=%d)" c.x_payment c.x_bob
  | Funded sv ->
      let f = sv.Xcrypto.Auth.payload in
      Fmt.pf ppf "funded(e=%d, %d)" f.f_escrow f.f_amount
  | Abort_req { payment } -> Fmt.pf ppf "abort-req(pay=%d)" payment
  | Tm_decision sv ->
      let d = sv.Xcrypto.Auth.payload in
      Fmt.pf ppf "%s(pay=%d)" (if d.dec_commit then "χc" else "χa") d.dec_payment
  | Committee_decision { commit; _ } ->
      Fmt.pf ppf "%s(committee)" (if commit then "χc" else "χa")
  | Notary _ | Chain_gossip _ -> Fmt.pf ppf "%s" (tag m)
  | Htlc_setup { lock; amount } ->
      Fmt.pf ppf "htlc-setup(%a, $%d)" Xcrypto.Hashlock.pp_lock lock amount
  | Htlc_claim _ -> Fmt.string ppf "htlc-claim"
  | Htlc_key _ -> Fmt.string ppf "htlc-key"
  | Quorum_req { item; req = Leg_funded { escrow_index } } ->
      Fmt.pf ppf "quorum-req(item=%d, leg=%d)" item escrow_index
  | Quorum_req { item; req = Abort_wanted } ->
      Fmt.pf ppf "quorum-req(item=%d, abort)" item
  | Quorum_msg m -> Quorum.Committee.pp_msg ppf m
  | Quorum_decision { cert } ->
      Fmt.pf ppf "quorum-decision(%d verdicts)"
        (List.length cert.Consensus.Dls.d_value)
  | Start -> Fmt.string ppf "start"
  | Traffic_done { payment } -> Fmt.pf ppf "traffic-done(pay=%d)" payment

(* Signed statements are '|'-joined fields, written in place by the
   writers of {!Xcrypto.Auth}: these run once per signature made or
   checked. *)
module A = Xcrypto.Auth

let put_time buf pos t =
  if Sim.Sim_time.is_infinite t then A.put_string buf pos "inf"
  else A.put_int buf pos t

let put_field buf pos n = A.put_int buf (A.put_char buf pos '|') n

let ser_promise_g buf g =
  let pos = put_field buf (A.put_char buf 0 'G') g.g_escrow in
  let pos = put_field buf pos g.g_customer in
  put_time buf (A.put_char buf pos '|') g.d

let ser_promise_p buf p =
  let pos = put_field buf (A.put_char buf 0 'P') p.p_escrow in
  let pos = put_field buf pos p.p_customer in
  put_time buf (A.put_char buf pos '|') p.a

let ser_chi buf c =
  let pos = put_field buf (A.put_string buf 0 "chi") c.x_payment in
  put_field buf pos c.x_bob

let ser_funded buf f =
  let pos = put_field buf (A.put_string buf 0 "funded") f.f_escrow in
  let pos = put_field buf pos f.f_payment in
  put_field buf pos f.f_amount

let ser_decision buf d =
  let pos = put_field buf (A.put_string buf 0 "dec") d.dec_payment in
  A.put_string buf (A.put_char buf pos '|') (string_of_bool d.dec_commit)

let ser_bool b = if b then "commit" else "abort"

let chain_tx_key = function
  | Tx_funded x ->
      Printf.sprintf "funded|%d|%d" x.Xcrypto.Auth.payload.f_escrow
        x.Xcrypto.Auth.payload.f_payment
  | Tx_abort x -> Printf.sprintf "abort|%d|%d" x.customer x.payment
