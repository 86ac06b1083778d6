open Sim
module E = Engine
module Dls = Consensus.Dls

type tm_kind =
  | Single
  | Committee of { f : int }
  | Quorum of { qs : Quorum_system.t }
  | Chain of { validators : int }
  | Shared of {
      pids : int array;
      item : int;
      verify : Quorum.Committee.batch Consensus.Dls.decision_cert -> bool;
    }
type notary_fault = Notary_honest | Notary_crash | Notary_equivocate

type config = {
  tm : tm_kind;
  patience : Sim_time.t;
  deposit_delay : Sim_time.t;
  tm_base_timeout : Sim_time.t;
  notary_faults : notary_fault array;
}

let default_config =
  {
    tm = Single;
    patience = 5_000;
    deposit_delay = 10;
    tm_base_timeout = 200;
    notary_faults = [||];
  }

let committee_size f = (3 * f) + 1

let tm_count cfg =
  match cfg.tm with
  | Single -> 1
  | Committee { f } -> committee_size f
  | Quorum { qs } -> Quorum_system.size qs
  | Chain { validators } -> validators
  | Shared _ -> 0

(* called on message paths: no TM and the single TM are built without
   [Array.init]'s closure *)
let tm_pids (env : Env.t) cfg =
  let base = Topology.aux_base env.Env.topo in
  match tm_count cfg with
  | 0 -> [||]
  | 1 -> [| base |]
  | n -> Array.init n (fun k -> base + k)

let dls_cfg (env : Env.t) cfg ~self_index ~signer ~validate =
  let pids = tm_pids env cfg in
  let qs =
    match cfg.tm with
    | Committee { f } -> Quorum_system.majority ~n:(committee_size f) ~f ()
    | Quorum { qs } -> qs
    | Single | Chain _ | Shared _ ->
        (* degenerate: these TM kinds never run an in-block DLS, but keep
           the config total (and valid) by requiring every replica to
           sign *)
        let n = max 1 (Array.length pids) in
        Quorum_system.majority ~q:n ~n ~f:0 ()
  in
  {
    Dls.qs;
    self = self_index;
    auth_ids = pids;
    registry = env.Env.registry;
    signer;
    ser = Msg.ser_bool;
    equal = Bool.equal;
    validate;
    base_timeout = cfg.tm_base_timeout;
  }

let verify_committee_decision (env : Env.t) cfg =
  match cfg.tm with
  | Single | Chain _ | Shared _ -> fun _ -> false
  | Committee _ | Quorum _ ->
      let pids = tm_pids env cfg in
      (* verification-only config: the signer field is unused by
         verify_decision, any registered signer will do *)
      let signer = Env.signer_of env pids.(0) in
      let vcfg =
        dls_cfg env cfg ~self_index:0 ~signer ~validate:(fun _ -> true)
      in
      fun dc -> Dls.verify_decision vcfg dc

(* Decode a decision message addressed to this run, from any TM kind.
   [tms] is [tm_pids env cfg] and [verify_committee] is
   [verify_committee_decision env cfg], both built once per handler set,
   not once per message. *)
let decision_of_msg (env : Env.t) cfg ~tms ~verify_committee ~src msg =
  match (cfg.tm, msg) with
  | Single, Msg.Tm_decision sv ->
      if src = tms.(0) && Env.decision_ok env ~tm:tms.(0) sv then
        Some sv.Xcrypto.Auth.payload.Msg.dec_commit
      else None
  | Chain _, Msg.Tm_decision sv ->
      (* the chain is trusted as a whole: any validator's signed decision
         speaks for the contract (they all replay the same chain) *)
      if
        Array.exists (fun p -> p = src) tms
        && Env.decision_ok env ~tm:src sv
      then Some sv.Xcrypto.Auth.payload.Msg.dec_commit
      else None
  | (Committee _ | Quorum _), Msg.Committee_decision { commit; cert } ->
      if
        Array.exists (fun p -> p = src) tms
        && Bool.equal cert.Dls.d_value commit
        && verify_committee cert
      then Some commit
      else None
  | Shared { item; verify; _ }, Msg.Quorum_decision { cert } ->
      (* the certificate is self-authenticating (a quorum of committee
         signatures over the whole batch), so [src] is irrelevant: any
         process may relay it. Extract this payment's own verdict. *)
      if verify cert then
        List.find_map
          (fun (v : Quorum.Committee.verdict) ->
            if v.Quorum.Committee.item = item then
              Some v.Quorum.Committee.commit
            else None)
          cert.Dls.d_value
      else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Customers                                                            *)
(* ------------------------------------------------------------------ *)

let customer_handlers (env : Env.t) cfg i =
  let topo = env.Env.topo in
  let n = Topology.hops topo in
  if i < 0 || i > n then invalid_arg "Weak_protocol.customer_handlers: index";
  let self = Topology.customer topo i in
  let pays = i < n in
  let e_down = if pays then Some (Topology.escrow topo i) else None in
  let e_up = if i > 0 then Some (Topology.escrow topo (i - 1)) else None in
  let pay_amount = if pays then Env.amount_at env i else 0 in
  let recv_amount = if i > 0 then Env.amount_at env (i - 1) else 0 in
  let tms = tm_pids env cfg in
  let verify_committee = verify_committee_decision env cfg in
  let decision : bool option ref = ref None in
  let refunded = ref false in
  let upstream_paid = ref false in
  let deposited = ref false in
  let done_ = ref false in
  let request_abort ctx =
    E.observe ctx (Obs.Abort_requested { by = self });
    match cfg.tm with
    | Shared { pids; item; _ } ->
        (* the shared committee lives in its own block: address its
           sequencer with an absolute pid *)
        E.send_absolute ctx ~dst:pids.(0)
          (Msg.Quorum_req { item; req = Msg.Abort_wanted })
    | _ ->
        Array.iter
          (fun tm ->
            E.send ctx ~dst:tm (Msg.Abort_req { payment = env.Env.payment }))
          tms
  in
  let finish ctx outcome =
    if not !done_ then begin
      done_ := true;
      E.observe ctx (Obs.Terminated { pid = self; outcome });
      E.halt ctx
    end
  in
  (* Terminate as soon as this customer's own obligations are settled:
     - abort decided: payers wait for their refund; Bob is done at once
       (his certificate χa is the decision he holds);
     - commit decided: Alice is done (χc in hand, CS1); receivers wait for
       the upstream release. *)
  let try_finish ctx =
    match !decision with
    | Some false ->
        if (not pays) || !refunded || not !deposited then
          finish ctx (if pays then "refunded" else "aborted")
    | Some true ->
        if i = 0 then finish ctx "certified"
        else if !upstream_paid then finish ctx "paid"
    | None -> ()
  in
  {
    E.on_start =
      (fun ctx ->
        if pays then
          E.set_timer_after ctx ~after:cfg.deposit_delay ~label:"deposit";
        if not (Sim_time.is_infinite cfg.patience) then
          E.set_timer_after ctx
            ~after:(Sim_time.add cfg.deposit_delay cfg.patience)
            ~label:"patience");
    on_receive =
      (fun ctx ~src msg ->
        if not !done_ then begin
          (match decision_of_msg env cfg ~tms ~verify_committee ~src msg with
          | Some commit ->
              if !decision = None then begin
                decision := Some commit;
                let kind = if commit then Obs.Chi_commit else Obs.Chi_abort in
                E.observe ctx
                  (Obs.Cert_received { pid = self; kind; valid = true })
              end
          | None -> ());
          (match msg with
          | Msg.Money { amount } when Some src = e_down && amount = pay_amount
            ->
              refunded := true
          | Msg.Money { amount } when Some src = e_up && amount = recv_amount
            ->
              upstream_paid := true
          | _ -> ());
          try_finish ctx
        end);
    on_timer =
      (fun ctx ~label ->
        if not !done_ then
          match label with
          | "deposit" ->
              if pays && not !deposited then begin
                deposited := true;
                match e_down with
                | Some e -> E.send ctx ~dst:e (Msg.Money { amount = pay_amount })
                | None -> ()
              end
          | "patience" -> if !decision = None then request_abort ctx
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Escrows                                                              *)
(* ------------------------------------------------------------------ *)

let escrow_handlers (env : Env.t) cfg i =
  let topo = env.Env.topo in
  let self = Topology.escrow topo i in
  let cust_up = Topology.customer topo i in
  let cust_down = Topology.customer topo (i + 1) in
  let amount = Env.amount_at env i in
  let signer = Env.signer_of env self in
  let tms = tm_pids env cfg in
  let verify_committee = verify_committee_decision env cfg in
  let resolved = ref false in
  let pending_decision : bool option ref = ref None in
  let resolve ctx commit =
    if env.Env.deposits.(i) < 0 then pending_decision := Some commit
    else if not !resolved then begin
      resolved := true;
      if commit then begin
        Env.release env ctx i;
        E.send ctx ~dst:cust_down (Msg.Money { amount })
      end
      else begin
        Env.refund env ctx i;
        E.send ctx ~dst:cust_up (Msg.Money { amount })
      end;
      E.observe ctx
        (Obs.Terminated
           { pid = self; outcome = (if commit then "released" else "refunded") });
      E.halt ctx
    end
  in
  {
    E.on_start = (fun _ -> ());
    on_receive =
      (fun ctx ~src msg ->
        match decision_of_msg env cfg ~tms ~verify_committee ~src msg with
        | Some commit -> resolve ctx commit
        | None -> (
            match msg with
            | Msg.Money _ when src = cust_up && env.Env.deposits.(i) < 0 ->
                Env.deposit env ctx i;
                if env.Env.deposits.(i) >= 0 then begin
                  E.observe ctx (Obs.Funded_reported { escrow = self; amount });
                  (match cfg.tm with
                  | Shared { pids; item; _ } ->
                      E.send_absolute ctx ~dst:pids.(0)
                        (Msg.Quorum_req
                           { item; req = Msg.Leg_funded { escrow_index = i } })
                  | _ ->
                      let body =
                        {
                          Msg.f_escrow = self;
                          f_payment = env.Env.payment;
                          f_amount = amount;
                        }
                      in
                      let signed =
                        Xcrypto.Auth.sign_value signer ~ser:Msg.ser_funded body
                      in
                      Array.iter
                        (fun tm -> E.send ctx ~dst:tm (Msg.Funded signed))
                        tms);
                  (* a decision that raced ahead of the deposit *)
                  match !pending_decision with
                  | Some c -> resolve ctx c
                  | None -> ()
                end
            | _ -> ()));
    on_timer = (fun _ ~label:_ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Transaction managers                                                 *)
(* ------------------------------------------------------------------ *)

let broadcast_to_participants (env : Env.t) ctx msg =
  let topo = env.Env.topo in
  List.iter
    (fun pid -> E.send ctx ~dst:pid msg)
    (Topology.customers topo @ Topology.escrows topo)

let single_tm_handlers (env : Env.t) cfg =
  let topo = env.Env.topo in
  let n = Topology.hops topo in
  let self = (tm_pids env cfg).(0) in
  let signer = Env.signer_of env self in
  let funded = Hashtbl.create 8 in
  let decided = ref None in
  let decide ctx commit =
    if !decided = None then begin
      decided := Some commit;
      E.observe ctx (Obs.Decision_made { by = self; commit });
      E.observe ctx
        (Obs.Cert_issued
           { by = self; kind = (if commit then Obs.Chi_commit else Obs.Chi_abort) });
      let body = { Msg.dec_payment = env.Env.payment; dec_commit = commit } in
      let signed = Xcrypto.Auth.sign_value signer ~ser:Msg.ser_decision body in
      broadcast_to_participants env ctx (Msg.Tm_decision signed)
    end
  in
  {
    E.on_start = (fun _ -> ());
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Funded sv -> (
            match Topology.escrow_index topo src with
            | Some idx when Env.funded_ok env ~escrow_index:idx sv ->
                Hashtbl.replace funded idx ();
                if Hashtbl.length funded = n then decide ctx true
            | Some _ | None ->
                E.observe ctx (Obs.Rejected { pid = self; what = "bad funded report" }))
        | Msg.Abort_req { payment } when payment = env.Env.payment -> (
            match Topology.customer_index topo src with
            | Some _ -> decide ctx false
            | None ->
                E.observe ctx
                  (Obs.Rejected { pid = self; what = "abort-req from non-customer" }))
        | _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let notary_handlers (env : Env.t) cfg ~index =
  let topo = env.Env.topo in
  let n = Topology.hops topo in
  let pids = tm_pids env cfg in
  let self = pids.(index) in
  let signer = Env.signer_of env self in
  let funded = Hashtbl.create 8 in
  let abort_seen = ref false in
  let started = ref false in
  let has_pref = ref false in
  let announced = ref false in
  (* External validity: commit needs every leg reported funded (to this
     notary), abort needs an actual abort request — a committee never
     aborts a payment nobody complained about. *)
  let validate commit =
    if commit then Hashtbl.length funded >= n else !abort_seen
  in
  let dls =
    Dls.create (dls_cfg env cfg ~self_index:index ~signer ~validate)
  in
  let rec interpret ctx effs =
    List.iter
      (fun eff ->
        match eff with
        | Dls.Send { to_; m } -> E.send ctx ~dst:pids.(to_) (Msg.Notary m)
        | Dls.Broadcast m ->
            Array.iter (fun p -> E.send ctx ~dst:p (Msg.Notary m)) pids
        | Dls.Set_round_timer { round; after } ->
            E.set_timer_after ctx ~after
              ~label:(Printf.sprintf "dls-round-%d" round)
        | Dls.Decided dc ->
            if not !announced then begin
              announced := true;
              E.observe ctx (Obs.Decision_made { by = self; commit = dc.Dls.d_value });
              E.observe ctx
                (Obs.Cert_issued
                   {
                     by = self;
                     kind = (if dc.Dls.d_value then Obs.Chi_commit else Obs.Chi_abort);
                   });
              broadcast_to_participants env ctx
                (Msg.Committee_decision { commit = dc.Dls.d_value; cert = dc })
            end)
      effs;
    ignore interpret
  in
  let maybe_start ctx =
    let pref =
      if !abort_seen then Some false
      else if Hashtbl.length funded >= n then Some true
      else None
    in
    match pref with
    | Some v ->
        if not !started then begin
          started := true;
          has_pref := true;
          interpret ctx (Dls.start dls ~my_value:v)
        end
        else if not !has_pref then begin
          has_pref := true;
          interpret ctx (Dls.update_preference dls v)
        end
    | None -> ()
  in
  {
    E.on_start = (fun _ -> ());
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Funded sv -> (
            match Topology.escrow_index topo src with
            | Some idx when Env.funded_ok env ~escrow_index:idx sv ->
                Hashtbl.replace funded idx ();
                maybe_start ctx
            | Some _ | None -> ())
        | Msg.Abort_req { payment } when payment = env.Env.payment -> (
            match Topology.customer_index topo src with
            | Some _ ->
                abort_seen := true;
                maybe_start ctx
            | None -> ())
        | Msg.Notary m -> (
            match
              Array.to_list pids |> List.mapi (fun k p -> (k, p))
              |> List.find_opt (fun (_, p) -> p = src)
            with
            | Some (k, _) ->
                (* a peer is active: join the rounds even without a
                   preference of our own — we can still echo and vote *)
                if not !started then begin
                  started := true;
                  interpret ctx (Dls.join dls)
                end;
                interpret ctx (Dls.on_msg dls ~from_:k m)
            | None -> ())
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        match
          int_of_string_opt
            (Option.value ~default:""
               (List.nth_opt (String.split_on_char '-' label) 2))
        with
        | Some round -> interpret ctx (Dls.on_round_timeout dls round)
        | None -> ());
  }

(* An equivocating notary: as round-0 leader it proposes commit to one half
   of the committee and abort to the other, and it signs echoes for every
   proposal it sees. Safety of the committee's decision must survive it. *)
let equivocating_notary (env : Env.t) cfg ~index =
  let pids = tm_pids env cfg in
  let self = pids.(index) in
  let signer = Env.signer_of env self in
  let echo_for round value =
    let body = { Dls.e_round = round; e_value = value } in
    Msg.Notary
      (Dls.Echo
         (Xcrypto.Auth.sign_value signer ~ser:(Dls.ser_echo Msg.ser_bool) body))
  in
  {
    E.on_start =
      (fun ctx ->
        if Dls.leader_of ~n:(Array.length pids) 0 = index then
          Array.iteri
            (fun k p ->
              let value = k mod 2 = 0 in
              E.send ctx ~dst:p
                (Msg.Notary (Dls.Propose { round = 0; value; justif = None })))
            pids);
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Notary (Dls.Propose { round; value; _ })
          when Array.exists (fun p -> p = src) pids ->
            Array.iter (fun p -> E.send ctx ~dst:p (echo_for round value)) pids
        | _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* ---------------- the chain-hosted contract validators ---------------- *)

module Chain = Consensus.Chain

type contract_state = { funded_legs : int list; contract_decided : bool option }

let chain_validator_handlers (env : Env.t) cfg ~index =
  let topo = env.Env.topo in
  let n = Topology.hops topo in
  let pids = tm_pids env cfg in
  let self = pids.(index) in
  let signer = Env.signer_of env self in
  let apply st tx =
    match st.contract_decided with
    | Some _ -> (st, [])
    | None -> (
        match tx with
        | Msg.Tx_funded sv ->
            let leg = sv.Xcrypto.Auth.payload.Msg.f_escrow in
            let funded_legs =
              if List.mem leg st.funded_legs then st.funded_legs
              else leg :: st.funded_legs
            in
            if List.length funded_legs = n then
              ({ funded_legs; contract_decided = Some true }, [ true ])
            else ({ st with funded_legs }, [])
        | Msg.Tx_abort _ ->
            ({ st with contract_decided = Some false }, [ false ]))
  in
  let chain =
    Chain.create
      {
        Chain.n = Array.length pids;
        self = index;
        block_interval = cfg.tm_base_timeout;
        initial_state = { funded_legs = []; contract_decided = None };
        apply;
        tx_equal = Msg.chain_tx_equal;
      }
  in
  let announced = ref false in
  let announce_decision ctx commit =
    if not !announced then begin
      announced := true;
      E.observe ctx (Obs.Decision_made { by = self; commit });
      E.observe ctx
        (Obs.Cert_issued
           { by = self; kind = (if commit then Obs.Chi_commit else Obs.Chi_abort) });
      let body = { Msg.dec_payment = env.Env.payment; dec_commit = commit } in
      let signed = Xcrypto.Auth.sign_value signer ~ser:Msg.ser_decision body in
      broadcast_to_participants env ctx (Msg.Tm_decision signed)
    end
  in
  let interpret ctx effs =
    List.iter
      (fun eff ->
        match eff with
        | Chain.Broadcast m ->
            Array.iter (fun p -> E.send ctx ~dst:p (Msg.Chain_gossip m)) pids
        | Chain.Set_round_timer { round; after } ->
            E.set_timer_after ctx ~after
              ~label:(Printf.sprintf "chain-round-%d" round)
        | Chain.Emit events ->
            List.iter (fun commit -> announce_decision ctx commit) events)
      effs
  in
  let validator_index src =
    let rec go k = if k >= Array.length pids then None
      else if pids.(k) = src then Some k else go (k + 1)
    in
    go 0
  in
  {
    E.on_start = (fun ctx -> interpret ctx (Chain.start chain));
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Funded sv -> (
            match Topology.escrow_index topo src with
            | Some idx when Env.funded_ok env ~escrow_index:idx sv ->
                interpret ctx
                  (Chain.on_msg chain ~from_:None (Chain.Submit (Msg.Tx_funded sv)))
            | Some _ | None -> ())
        | Msg.Abort_req { payment } when payment = env.Env.payment -> (
            match Topology.customer_index topo src with
            | Some c ->
                interpret ctx
                  (Chain.on_msg chain ~from_:None
                     (Chain.Submit (Msg.Tx_abort { customer = c; payment })))
            | None -> ())
        | Msg.Chain_gossip m ->
            interpret ctx (Chain.on_msg chain ~from_:(validator_index src) m)
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        match
          int_of_string_opt
            (Option.value ~default:""
               (List.nth_opt (String.split_on_char '-' label) 2))
        with
        | Some round -> interpret ctx (Chain.on_round_timeout chain round)
        | None -> ());
  }

let tm_handlers (env : Env.t) cfg ~index =
  match cfg.tm with
  | Single -> single_tm_handlers env cfg
  | Shared _ ->
      (* no in-block TM process: the shared committee runs in a block of
         its own (see Traffic.Load) and [tm_pids] is empty, so this
         branch is unreachable; keep the match total *)
      E.silent
  | Chain _ -> chain_validator_handlers env cfg ~index
  | Committee _ | Quorum _ ->
      let fault =
        if Array.length cfg.notary_faults > index then
          cfg.notary_faults.(index)
        else Notary_honest
      in
      (match fault with
      | Notary_honest -> notary_handlers env cfg ~index
      | Notary_crash -> E.silent
      | Notary_equivocate -> equivocating_notary env cfg ~index)

let handlers_for (env : Env.t) cfg pid =
  let topo = env.Env.topo in
  match Topology.role_of topo pid with
  | Some Topology.Alice -> customer_handlers env cfg 0
  | Some Topology.Bob -> customer_handlers env cfg (Topology.hops topo)
  | Some (Topology.Connector i) -> customer_handlers env cfg i
  | Some (Topology.Escrow i) -> escrow_handlers env cfg i
  | _ ->
      let base = Topology.aux_base topo in
      let index = pid - base in
      if index >= 0 && index < Array.length (tm_pids env cfg) then
        tm_handlers env cfg ~index
      else invalid_arg "Weak_protocol.handlers_for: unknown pid"
