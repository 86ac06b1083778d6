open Sim
module A = Anta.Automaton
module Store = Anta.Store
module E = Engine
module Dls = Consensus.Dls

type tm_kind =
  | Single
  | Committee of { f : int }
  | Quorum of { qs : Quorum_system.t }
  | Chain of { validators : int }
  | Shared of {
      pids : int array;
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

let tm_pids topo cfg =
  let base = Topology.aux_base topo in
  Array.init (tm_count cfg) (fun k -> base + k)

let dls_cfg (env : Env.t) cfg ~self_index ~signer ~validate =
  let qs =
    match cfg.tm with
    | Committee { f } -> Quorum_system.majority ~n:(committee_size f) ~f ()
    | Quorum { qs } -> qs
    | Single | Chain _ | Shared _ -> invalid_arg "Weak_protocol: no notary committee"
  in
  {
    Dls.qs;
    self = self_index;
    auth_ids = tm_pids env.Env.topo cfg;
    registry = env.Env.registry;
    signer;
    ser = Msg.ser_bool;
    equal = Bool.equal;
    validate;
    base_timeout = cfg.tm_base_timeout;
  }

(* ------------------------------------------------------------------ *)
(* The automata                                                         *)
(* ------------------------------------------------------------------ *)

type instance = {
  env : Env.t;
  cfg : config;
  verify_committee : bool Dls.decision_cert -> bool;
}

let instance (env : Env.t) cfg =
  let verify_committee =
    match cfg.tm with
    | Single | Chain _ | Shared _ -> fun _ -> false
    | Committee _ | Quorum _ ->
        (* verification only: any registered signer will do *)
        let signer = Env.signer_of env (Topology.aux_base env.topo) in
        Dls.verify_decision
          (dls_cfg env cfg ~self_index:0 ~signer ~validate:(fun _ -> true))
  in
  { env; cfg; verify_committee }

type auto = (instance, Msg.t, Obs.t) A.t
type template = auto array

(* this payment's verdict in a shared certificate: the first for its item *)
let rec verdict_is item commit = function
  | [] -> false
  | (v : Quorum.Committee.verdict) :: rest ->
      if v.item = item then Bool.equal v.commit commit
      else verdict_is item commit rest

(* The receive of the decision [commit]: from any TM replica, its value
   read before any signature or certificate is checked, a single or chain
   TM's judged by its author; or from anyone relaying a shared committee's
   certificate, which authenticates itself. *)
let on_decision topo cfg ?act commit next =
  let tms =
    match cfg.tm with
    | Single -> A.One (Topology.aux_base topo)
    | Committee _ | Quorum _ | Chain _ | Shared _ -> A.Among (tm_pids topo cfg)
  in
  let senders, (accept : instance -> Msg.t -> bool) =
    match cfg.tm with
    | Single | Chain _ ->
        ( tms, fun inst -> function
            | Msg.Tm_decision sv ->
                Bool.equal sv.payload.dec_commit commit && Anta.Pool.admits tms sv.author
                && Env.decision_ok inst.env ~tm:sv.author sv
            | _ -> false )
    | Committee _ | Quorum _ ->
        ( tms, fun inst -> function
            | Msg.Committee_decision { commit = c; cert } ->
                Bool.equal c commit && Bool.equal cert.d_value c
                && inst.verify_committee cert
            | _ -> false )
    | Shared { verify; _ } ->
        ( A.Any, fun inst -> function
            | Msg.Quorum_decision { cert } ->
                verdict_is inst.env.payment commit cert.d_value && verify cert
            | _ -> false )
  in
  A.on_receive ~from_:senders ~describe:(if commit then "χc" else "χa") ~accept
    ?act ~next ()

(* [message] to every TM, or to a shared committee's sequencer by its
   engine pid: the output states [name0], [name1], ..., then [next] *)
let to_tms topo cfg name ~message next =
  match cfg.tm with
  | Shared { pids; _ } ->
      [ (name ^ "0", A.output ~absolute:true ~to_:pids.(0) ~message ~next ()) ]
  | Single | Committee _ | Quorum _ | Chain _ ->
      let tms = tm_pids topo cfg in
      let state j = if j = Array.length tms then next else name ^ string_of_int j in
      List.init (Array.length tms) (fun j ->
          (state j, A.output ~to_:tms.(j) ~message ~next:(state (j + 1)) ()))

(* Env's $ message and guard over the instance, applied in full: no
   closure per call *)
let money_of i inst ctx store = Env.money_of i inst.env ctx store
let is_money i inst m = Env.is_money i inst.env m

(* Customer c_i. A payer deposits [deposit_delay] after her birth, and
   every customer asks the TM to abort [patience] after that unless it
   has decided: both count from birth, as named timers that stay armed
   from state to state. The undecided states are named by whether c_i
   has yet to deposit ("_due") and whether her patience has run out
   ("_asked"). χc certifies Alice and lets a receiver wait for her
   upstream $, depositing first if hers is still due; χa returns a
   deposit and settles anyone who made none. *)
let customer topo cfg i : auto =
  let n = Topology.hops topo in
  let self = Topology.customer topo i in
  let pays = i < n in
  let undecided ~due ~asked =
    "await" ^ (if due then "_due" else "") ^ if asked then "_asked" else ""
  in
  let decide commit next =
    let kind = if commit then Obs.Chi_commit else Obs.Chi_abort in
    on_decision topo cfg commit next ~act:(fun _ ctx _ _ ->
        E.observe ctx (Obs.Cert_received { pid = self; kind; valid = true }))
  in
  let deposit next =
    A.on_deadline ~timer:"deposit" ~base:"born" ~offset:cfg.deposit_delay ~next ()
  in
  let pay name next =
    (name, A.output ~to_:(Topology.escrow topo i) ~message:(money_of i) ~next ())
  in
  let paid () =
    Env.recv (Topology.escrow topo (i - 1)) "$" (is_money (i - 1)) "done_paid"
  in
  let ask =
    match cfg.tm with
    | Shared _ ->
        fun inst _ _ -> Msg.Quorum_req { item = inst.env.payment; req = Msg.Abort_wanted }
    | Single | Committee _ | Quorum _ | Chain _ ->
        fun inst _ _ -> Msg.Abort_req { payment = inst.env.payment }
  in
  let state (due, asked) =
    let name = undecided ~due ~asked in
    ( name,
      A.input
        ((if due then [ deposit ("pay" ^ name) ] else [])
        @ (if asked then []
           else
             [
               A.on_deadline ~timer:"patience" ~base:"born"
                 ~offset:(Sim_time.add cfg.deposit_delay cfg.patience)
                 ~act:(fun _ ctx _ _ ->
                   E.observe ctx (Obs.Abort_requested { by = self }))
                 ~next:("ask" ^ name ^ "0") ();
             ])
        @ [
            decide true
              (if i = 0 then "done_certified"
               else if due then "committed"
               else "await_paid");
            decide false
              (if due then "done_refunded"
               else if pays then "await_refund"
               else "done_aborted");
          ] ) )
    :: (if due then [ pay ("pay" ^ name) (undecided ~due:false ~asked) ] else [])
    @
    if asked then []
    else to_tms topo cfg ("ask" ^ name) ~message:ask (undecided ~due ~asked:true)
  in
  let dues = if pays then [ true; false ] else [ false ] in
  let asks = [ false; true ] in
  A.make ~name:(Topology.role_name topo self) ~born:[ "born" ]
    ~initial:(undecided ~due:pays ~asked:false)
    ~nodes:
      (List.concat_map
         (fun due -> List.concat_map (fun asked -> state (due, asked)) asks)
         dues
      @ (if i = 0 then [ ("done_certified", Env.final self "certified") ]
         else
           [ ("await_paid", A.input [ paid () ]); ("done_paid", Env.final self "paid") ])
      @ (if i > 0 && pays then
           [ ("committed", A.input [ deposit "pay_committed"; paid () ]);
             pay "pay_committed" "await_paid" ]
         else [])
      @
      if pays then
        [ ( "await_refund",
            A.input
              [ Env.recv (Topology.escrow topo i) "$" (is_money i) "done_refunded" ] );
          ("done_refunded", Env.final self "refunded") ]
      else [ ("done_aborted", Env.final self "aborted") ])
    ()

(* Escrow e_i: deposit on c_i's $ (a deposit the book refuses is refused
   in place), report the funded leg to every TM under one signature, and
   settle on the decision; a decision that raced ahead of the deposit
   waits in the pool. *)
let escrow topo cfg i : auto =
  let self = Topology.escrow topo i in
  let cust_up = Topology.customer topo i in
  let is_deposit _ = function Msg.Money _ -> true | _ -> false in
  let deposit inst ctx _ _ = Env.deposit inst.env ctx i in
  let funded inst ctx store _ =
    let env = inst.env and amount = Env.amount_at inst.env i in
    Env.deposit env ctx i;
    E.observe ctx (Obs.Funded_reported { escrow = self; amount });
    Store.set_data store "report"
      (match cfg.tm with
      | Shared _ ->
          Msg.Quorum_req
            { item = env.payment; req = Msg.Leg_funded { escrow_index = i } }
      | Single | Committee _ | Quorum _ | Chain _ -> Env.funded_report env i)
  in
  let settle name ~to_ act outcome =
    [
      ( name,
        A.output ~to_
          ~act:(fun inst ctx store -> act inst.env ctx store)
          ~message:(money_of i)
          ~next:("done_" ^ outcome) () );
      ("done_" ^ outcome, Env.final self outcome);
    ]
  in
  A.make ~name:("escrow" ^ string_of_int i) ~initial:"await_money"
    ~nodes:
      ((( "await_money",
          A.input
            [
              A.on_receive ~from_:(A.One cust_up) ~describe:"$"
                ~accept:(fun inst m ->
                  is_deposit inst m && Env.can_fund inst.env i)
                ~act:funded ~next:"report0" ();
              A.on_receive ~from_:(A.One cust_up) ~describe:"$, funds short"
                ~accept:is_deposit ~act:deposit ~next:"await_money" ();
            ] )
       :: to_tms topo cfg "report" "await_decision"
            ~message:(fun _ _ store -> Store.data store "report"))
      @ ( "await_decision",
          A.input
            [
              on_decision topo cfg true "release";
              on_decision topo cfg false "refund";
            ] )
        :: settle "release" ~to_:(Topology.customer topo (i + 1))
             (fun env ctx _ -> Env.release env ctx i)
             "released"
      @ settle "refund" ~to_:cust_up
          (fun env ctx _ -> Env.refund env ctx i)
          "refunded")
    ()

(* The single TM takes the funded legs in escrow order (a report that
   arrives early waits in the pool), so the last one decides commit; a
   customer's abort request decides abort first. It signs its decision
   once, announces it to every customer and escrow, pids 0 .. 2n in
   order, and is done. An abort request from elsewhere, or a report its
   author did not validly sign, is rejected in place. *)
let single_tm topo : auto =
  let n = Topology.hops topo and self = Topology.aux_base topo in
  let for_us inst = function
    | Msg.Abort_req { payment } -> payment = inst.env.payment
    | _ -> false
  in
  let bad_report inst = function
    | Msg.Funded sv -> (
        match Topology.escrow_index topo sv.author with
        | Some j -> not (Env.funded_ok inst.env ~escrow_index:j sv)
        | None -> true)
    | _ -> false
  in
  let reject what _ ctx _ _ = E.observe ctx (Obs.Rejected { pid = self; what }) in
  let decide commit inst ctx store _ = Env.decide inst.env ctx store ~tm:self commit in
  let await j = if j = n then "announce0" else "await" ^ string_of_int j in
  let leg j =
    ( await j,
      A.input
        [
          A.on_receive ~from_:(A.One (Topology.escrow topo j)) ~describe:"funded"
            ~accept:(fun inst -> function
              | Msg.Funded sv -> Env.funded_ok inst.env ~escrow_index:j sv
              | _ -> false)
            ?act:(if j = n - 1 then Some (decide true) else None)
            ~next:(await (j + 1)) ();
          A.on_receive ~from_:(A.Among (Array.init (n + 1) Fun.id))
            ~describe:"abort" ~accept:for_us ~act:(decide false)
            ~next:"announce0" ();
          A.on_receive ~from_:A.Any ~describe:"abort, not a customer's"
            ~accept:for_us
            ~act:(reject "abort-req from non-customer")
            ~next:(await j) ();
          A.on_receive ~from_:A.Any ~describe:"bad funded report"
            ~accept:bad_report ~act:(reject "bad funded report") ~next:(await j)
            ();
        ] )
  in
  A.make ~name:"tm" ~initial:"await0" ~nodes:(List.init n leg @ Env.announce ~tm:self) ()

let template cfg ~hops =
  let topo = Topology.create ~hops in
  let tms = match cfg.tm with Single -> 1 | _ -> 0 in
  Array.init (Topology.payment_count topo + tms) (fun pid ->
      match Topology.role_of topo pid with
      | Some (Topology.Alice | Topology.Connector _ | Topology.Bob) ->
          customer topo cfg pid
      | Some (Topology.Escrow i) -> escrow topo cfg i
      | Some (Topology.Aux _) | None -> single_tm topo)

(* ------------------------------------------------------------------ *)
(* The hand-written TM replicas: DLS notaries and chain validators      *)
(* ------------------------------------------------------------------ *)

let replica_index pids pid =
  let rec go k =
    if k >= Array.length pids then None else if pids.(k) = pid then Some k else go (k + 1)
  in
  go 0

(* R of a ["<kind>-round-R"] timer label, read in place after its last '-' *)
let round_of_label label =
  let rec decimal acc k =
    if k >= String.length label then acc
    else decimal ((acc * 10) + Char.code label.[k] - 48) (k + 1)
  in
  match String.rindex_opt label '-' with Some k -> decimal 0 (k + 1) | None -> -1

(* A replica's decision [commit], made, issued and sent to every customer
   and escrow, pids 0 .. 2n in order *)
let announce ctx topo ~by commit m =
  Env.decided ctx ~tm:by commit;
  for pid = 0 to Topology.aux_base topo - 1 do E.send ctx ~dst:pid m done

let notary_handlers (env : Env.t) cfg ~index =
  let topo = env.Env.topo in
  let pids = tm_pids topo cfg in
  let n = Topology.hops topo and self = pids.(index) in
  let signer = Env.signer_of env self in
  let funded = Hashtbl.create 8 in
  let abort_seen = ref false and started = ref false in
  let has_pref = ref false and announced = ref false in
  (* External validity: commit needs every leg reported funded (to this
     notary), abort needs an actual abort request — a committee never
     aborts a payment nobody complained about. *)
  let validate commit =
    if commit then Hashtbl.length funded >= n else !abort_seen
  in
  let dls = Dls.create (dls_cfg env cfg ~self_index:index ~signer ~validate) in
  let rec interpret ctx effs =
    List.iter
      (fun eff ->
        match eff with
        | Dls.Send { to_; m } -> E.send ctx ~dst:pids.(to_) (Msg.Notary m)
        | Dls.Broadcast m -> Array.iter (fun p -> E.send ctx ~dst:p (Msg.Notary m)) pids
        | Dls.Set_round_timer { round; after } ->
            E.set_timer_after ctx ~after ~label:(Printf.sprintf "dls-round-%d" round)
        | Dls.Decided dc ->
            if not !announced then begin
              announced := true;
              announce ctx topo ~by:self dc.Dls.d_value
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
    | Some v when not !started ->
        started := true;
        has_pref := true;
        interpret ctx (Dls.start dls ~my_value:v)
    | Some v when not !has_pref ->
        has_pref := true;
        interpret ctx (Dls.update_preference dls v)
    | Some _ | None -> ()
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
        | Msg.Abort_req { payment } when payment = env.Env.payment ->
            if Topology.customer_index topo src >= 0 then begin
              abort_seen := true;
              maybe_start ctx
            end
        | Msg.Notary m -> (
            match replica_index pids src with
            | Some k ->
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
        let round = round_of_label label in
        if round >= 0 then interpret ctx (Dls.on_round_timeout dls round));
  }

(* An equivocating notary: as round-0 leader it proposes commit to one half
   of the committee and abort to the other, and it signs echoes for every
   proposal it sees. Safety of the committee's decision must survive it. *)
let ser_echo_bool = Dls.ser_echo Msg.ser_bool

let equivocating_notary (env : Env.t) cfg ~index =
  let pids = tm_pids env.Env.topo cfg in
  let signer = Env.signer_of env pids.(index) in
  let echo_for round value =
    let body = { Dls.e_round = round; e_value = value } in
    Msg.Notary
      (Dls.Echo
         (Xcrypto.Auth.sign_value signer ~put:ser_echo_bool body))
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
  let pids = tm_pids topo cfg in
  let n = Topology.hops topo and self = pids.(index) in
  let signer = Env.signer_of env self in
  let apply st tx =
    match (st.contract_decided, tx) with
    | Some _, _ -> (st, [])
    | None, Msg.Tx_funded sv ->
        let leg = sv.Xcrypto.Auth.payload.Msg.f_escrow in
        let funded_legs =
          if List.mem leg st.funded_legs then st.funded_legs else leg :: st.funded_legs
        in
        if List.length funded_legs = n then
          ({ funded_legs; contract_decided = Some true }, [ true ])
        else ({ st with funded_legs }, [])
    | None, Msg.Tx_abort _ -> ({ st with contract_decided = Some false }, [ false ])
  in
  let chain =
    Chain.create
      { Chain.n = Array.length pids; self = index; block_interval = cfg.tm_base_timeout;
        initial_state = { funded_legs = []; contract_decided = None }; apply;
        tx_key = Msg.chain_tx_key }
  in
  let announced = ref false in
  let announce_decision ctx commit =
    if not !announced then begin
      announced := true;
      announce ctx topo ~by:self commit
        (Msg.Tm_decision
           (Xcrypto.Auth.sign_value signer ~put:Msg.ser_decision
              { Msg.dec_payment = env.Env.payment; dec_commit = commit }))
    end
  in
  let interpret ctx effs =
    List.iter
      (fun eff ->
        match eff with
        | Chain.Broadcast m ->
            Array.iter (fun p -> E.send ctx ~dst:p (Msg.Chain_gossip m)) pids
        | Chain.Set_round_timer { round; after } ->
            E.set_timer_after ctx ~after ~label:(Printf.sprintf "chain-round-%d" round)
        | Chain.Emit events ->
            List.iter (fun commit -> announce_decision ctx commit) events)
      effs
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
        | Msg.Abort_req { payment } when payment = env.Env.payment ->
            let c = Topology.customer_index topo src in
            if c >= 0 then
              interpret ctx
                (Chain.on_msg chain ~from_:None
                   (Chain.Submit (Msg.Tx_abort { customer = c; payment })))
        | Msg.Chain_gossip m ->
            interpret ctx (Chain.on_msg chain ~from_:(replica_index pids src) m)
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        let round = round_of_label label in
        if round >= 0 then interpret ctx (Chain.on_round_timeout chain round));
  }

let tm_handlers (env : Env.t) cfg ~index =
  match cfg.tm with
  | Single | Shared _ -> invalid_arg "Weak_protocol.instantiate: no such TM replica"
  | Chain _ -> chain_validator_handlers env cfg ~index
  | Committee _ | Quorum _ -> (
      let faults = cfg.notary_faults in
      match if index < Array.length faults then faults.(index) else Notary_honest with
      | Notary_honest -> notary_handlers env cfg ~index
      | Notary_crash -> E.silent
      | Notary_equivocate -> equivocating_notary env cfg ~index)

let instantiate tmpl inst pid =
  if pid < Array.length tmpl then Anta.Executor.instantiate tmpl inst pid
  else tm_handlers inst.env inst.cfg ~index:(pid - Topology.aux_base inst.env.topo)

let well_formed cfg ~hops =
  let peers =
    match cfg.tm with
    | Committee _ | Quorum _ | Chain _ ->
        Array.to_list (tm_pids (Topology.create ~hops) cfg)
    | Single | Shared _ -> []
  in
  Anta.Network_check.well_formed ~peers (template cfg ~hops)
