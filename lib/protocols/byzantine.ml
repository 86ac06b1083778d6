open Sim
module E = Engine

type t =
  | Crash_at_start
  | Crash_after_receives of int
  | Mute
  | Thief_escrow
  | Premature_refund_escrow
  | No_resolve_escrow
  | Eager_chi_bob
  | Withhold_chi_bob
  | Forge_chi_connector
  | Double_money_customer
  | Impatient of Sim_time.t
  | Never_deposit
  | False_funded_escrow

let name = function
  | Crash_at_start -> "crash-at-start"
  | Crash_after_receives k -> Printf.sprintf "crash-after-%d" k
  | Mute -> "mute"
  | Thief_escrow -> "thief-escrow"
  | Premature_refund_escrow -> "premature-refund"
  | No_resolve_escrow -> "no-resolve"
  | Eager_chi_bob -> "eager-chi"
  | Withhold_chi_bob -> "withhold-chi"
  | Forge_chi_connector -> "forge-chi"
  | Double_money_customer -> "double-money"
  | Impatient p -> Printf.sprintf "impatient-%s" (Sim_time.to_string p)
  | Never_deposit -> "never-deposit"
  | False_funded_escrow -> "false-funded"

let applicable_to t (role : Topology.role) =
  match (t, role) with
  | (Crash_at_start | Crash_after_receives _ | Mute), _ -> true
  | ( (Thief_escrow | Premature_refund_escrow | No_resolve_escrow
      | False_funded_escrow),
      Topology.Escrow _ ) ->
      true
  | (Eager_chi_bob | Withhold_chi_bob), Topology.Bob -> true
  | Forge_chi_connector, (Topology.Connector _ | Topology.Bob) -> true
  | ( (Double_money_customer | Impatient _ | Never_deposit),
      (Topology.Alice | Topology.Connector _) ) ->
      true
  | (Impatient _ | Never_deposit), Topology.Bob -> true
  | _, _ -> false

let all =
  [
    Crash_at_start;
    Crash_after_receives 1;
    Mute;
    Thief_escrow;
    Premature_refund_escrow;
    No_resolve_escrow;
    Eager_chi_bob;
    Withhold_chi_bob;
    Forge_chi_connector;
    Double_money_customer;
    Impatient Sim_time.zero;
    Never_deposit;
    False_funded_escrow;
  ]

(* --- the STRATEGY@ROLE spelling of a substitution (--fault) --- *)

let spelling = function Crash_at_start -> "crash" | t -> name t

let spelled =
  List.filter
    (function Crash_after_receives _ | Impatient _ -> false | _ -> true)
    all

let fault_to_string topo (pid, t) =
  spelling t ^ "@" ^ Topology.role_name topo pid

let fault_of_string topo spec =
  match String.split_on_char '@' spec with
  | [ strategy; role ] -> (
      match Topology.pid_of_name topo role with
      | None -> Error (Printf.sprintf "unknown role %S" role)
      | Some pid -> (
          match List.find_opt (fun t -> spelling t = strategy) spelled with
          | None -> Error (Printf.sprintf "unknown strategy %S" strategy)
          | Some t -> (
              match Topology.role_of topo pid with
              | Some r when applicable_to t r -> Ok (pid, t)
              | _ ->
                  Error
                    (Printf.sprintf "strategy %S does not apply to role %S"
                       strategy role))))
  | _ -> Error (Printf.sprintf "fault %S is not strategy@role" spec)

let crash_after k =
  let count = ref 0 in
  {
    E.on_start = (fun _ -> ());
    on_receive =
      (fun ctx ~src:_ _ ->
        incr count;
        if !count >= k then E.halt ctx);
    on_timer = (fun _ ~label:_ -> ());
  }

(* An escrow that plays the opening honestly (G, deposit) and then deviates
   via [after_deposit]. *)
let deviant_escrow (env : Env.t) i ~send_p ~after_deposit =
  let topo = env.Env.topo in
  let self = Topology.escrow topo i in
  let cust_up = Topology.customer topo i in
  let cust_down = Topology.customer topo (i + 1) in
  let signer = Env.signer_of env self in
  let d_i = env.Env.params.Params.d.(i) in
  let a_i = env.Env.params.Params.a.(i) in
  {
    E.on_start =
      (fun ctx ->
        E.send ctx ~dst:cust_up
          (Msg.Promise_g
             (Xcrypto.Auth.sign_value signer ~ser:Msg.ser_promise_g
                { Msg.g_escrow = self; g_customer = cust_up; d = d_i })));
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Money _ when src = cust_up && env.Env.deposits.(i) < 0 ->
            Env.deposit env ctx i;
            if env.Env.deposits.(i) >= 0 then begin
              if send_p then
                E.send ctx ~dst:cust_down
                  (Msg.Promise_p
                     (Xcrypto.Auth.sign_value signer ~ser:Msg.ser_promise_p
                        { Msg.p_escrow = self; p_customer = cust_down; a = a_i }));
              after_deposit ctx
            end
        | _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let thief_escrow (env : Env.t) i =
  deviant_escrow env i ~send_p:false ~after_deposit:(fun ctx ->
      let self = Topology.escrow env.Env.topo i in
      let deposit = env.Env.deposits.(i) and amount = Env.amount_at env i in
      match Ledger.Book.release env.Env.books.(i) deposit ~to_:self with
      | Ok () ->
          E.observe ctx
            (Obs.Released { escrow = self; deposit; to_ = self; amount })
      | Error e ->
          E.observe ctx
            (Obs.Rejected
               { pid = self; what = Fmt.str "steal: %a" Ledger.Book.pp_error e }))

let premature_refund_escrow (env : Env.t) i =
  deviant_escrow env i ~send_p:true ~after_deposit:(fun ctx ->
      Env.refund env ctx i;
      E.send ctx
        ~dst:(Topology.customer env.Env.topo i)
        (Msg.Money { amount = Env.amount_at env i }))

let no_resolve_escrow env i =
  deviant_escrow env i ~send_p:true ~after_deposit:(fun _ -> ())

let eager_chi_bob (env : Env.t) =
  let topo = env.Env.topo in
  let self = Topology.bob topo in
  let e_up = Topology.escrow topo (Topology.hops topo - 1) in
  {
    E.on_start =
      (fun ctx ->
        E.observe ctx (Obs.Cert_issued { by = self; kind = Obs.Chi });
        E.send ctx ~dst:e_up (Msg.Chi (Env.make_chi env)));
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let forge_chi_connector (env : Env.t) pid =
  let topo = env.Env.topo in
  let i =
    match Topology.customer_index topo pid with
    | Some i -> i
    | None -> invalid_arg "forge_chi_connector: not a customer"
  in
  let e_up = Topology.escrow topo (i - 1) in
  let bob = Topology.bob topo in
  {
    E.on_start =
      (fun ctx ->
        let fake =
          Xcrypto.Auth.forge_value ~author:bob
            { Msg.x_payment = env.Env.payment; x_bob = bob }
        in
        E.send ctx ~dst:e_up (Msg.Chi fake));
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let double_money_customer (env : Env.t) pid =
  let topo = env.Env.topo in
  let i =
    match Topology.customer_index topo pid with
    | Some i -> i
    | None -> invalid_arg "double_money_customer: not a customer"
  in
  let e_down = Topology.escrow topo i in
  let amount = Env.amount_at env i in
  {
    E.on_start =
      (fun ctx ->
        E.send ctx ~dst:e_down (Msg.Money { amount });
        E.send ctx ~dst:e_down (Msg.Money { amount }));
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* Weak-protocol strategies: an impatient customer aborts unconditionally;
   a lying escrow reports a leg funded that never was. *)
let impatient_customer (env : Env.t) ~tms pid patience =
  {
    E.on_start =
      (fun ctx -> E.set_timer_after ctx ~after:patience ~label:"impatience");
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer =
      (fun ctx ~label ->
        if String.equal label "impatience" then begin
          E.observe ctx (Obs.Abort_requested { by = pid });
          Array.iter
            (fun tm ->
              E.send ctx ~dst:tm (Msg.Abort_req { payment = env.Env.payment }))
            tms
        end);
  }

let false_funded_escrow (env : Env.t) i ~tms =
  let topo = env.Env.topo in
  let self = Topology.escrow topo i in
  let amount = Env.amount_at env i in
  {
    E.on_start =
      (fun ctx ->
        E.observe ctx (Obs.Funded_reported { escrow = self; amount });
        let report = Env.funded_report env i in
        Array.iter (fun tm -> E.send ctx ~dst:tm report) tms);
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let handlers (env : Env.t) ?(tms = [||]) ~pid t =
  let topo = env.Env.topo in
  let role =
    match Topology.role_of topo pid with
    | Some r -> r
    | None -> invalid_arg "Byzantine.handlers: unknown pid"
  in
  if not (applicable_to t role) then
    invalid_arg
      (Fmt.str "Byzantine.handlers: %s not applicable to %a" (name t)
         Topology.pp_role role);
  let tms = if Array.length tms = 0 then [| Topology.aux_base topo |] else tms in
  match (t, role) with
  | Crash_at_start, _ -> E.silent
  | Crash_after_receives k, _ -> crash_after k
  | Mute, _ -> E.silent
  | Thief_escrow, Topology.Escrow i -> thief_escrow env i
  | Premature_refund_escrow, Topology.Escrow i -> premature_refund_escrow env i
  | No_resolve_escrow, Topology.Escrow i -> no_resolve_escrow env i
  | Eager_chi_bob, Topology.Bob -> eager_chi_bob env
  | Withhold_chi_bob, Topology.Bob -> E.silent
  | Forge_chi_connector, _ -> forge_chi_connector env pid
  | Double_money_customer, _ -> double_money_customer env pid
  | Impatient p, _ -> impatient_customer env ~tms pid p
  | Never_deposit, _ -> E.silent
  | False_funded_escrow, Topology.Escrow i -> false_funded_escrow env i ~tms
  | _, _ -> assert false
