open Sim
module A = Anta.Automaton
module Store = Anta.Store
module E = Engine

type config = { deadline : Sim_time.t }

let default_config = { deadline = 5_000 }

type auto = (Env.t, Msg.t, Obs.t) A.t
type template = auto array

(* Is this the notary's decision [commit]? The payload is read before the
   signature is checked. *)
let decision_is topo commit env = function
  | Msg.Tm_decision sv ->
      sv.Xcrypto.Auth.payload.Msg.dec_commit = commit
      && Env.decision_ok env ~tm:(Topology.aux_base topo) sv
  | _ -> false

(* A customer's receive of the decision [commit], noted as a valid χc /
   χa. *)
let on_decision topo self commit next =
  let kind = if commit then Obs.Chi_commit else Obs.Chi_abort in
  A.on_receive ~from_:(A.One (Topology.aux_base topo))
    ~describe:(if commit then "χc" else "χa")
    ~accept:(decision_is topo commit)
    ~act:(fun _ ctx _ _ ->
      E.observe ctx (Obs.Cert_received { pid = self; kind; valid = true }))
    ~next ()

(* P from e_i: e_i's leg is prepared *)
let on_p topo i next =
  Env.recv (Topology.escrow topo i) "P"
    (fun env -> function
      | Msg.Promise_p sv -> Env.promise_p_ok env ~escrow_index:i sv
      | _ -> false)
    next

(* Alice prepares unprompted, then is certified by χc or refunded after
   χa. A settlement that arrives before the decision waits in the pool. *)
let alice topo : auto =
  let self = Topology.alice topo in
  let e0 = Topology.escrow topo 0 in
  A.make ~name:"alice" ~initial:"prepare"
    ~nodes:
      [
        ( "prepare",
          A.output ~to_:e0 ~message:(Env.money_of 0) ~next:"await_decision" () );
        ( "await_decision",
          A.input
            [
              on_decision topo self true "done_certified";
              on_decision topo self false "await_refund";
            ] );
        ( "await_refund",
          A.input [ Env.recv e0 "$" (Env.is_money 0) "done_refunded" ] );
        ("done_certified", Env.final self "certified");
        ("done_refunded", Env.final self "refunded");
      ] ()

(* Chloe_i prepares her outgoing leg once her incoming one is (P from
   e_{i-1}), then is paid upstream after χc or refunded downstream after
   χa; χa before she prepared leaves her nothing to wait for. *)
let connector topo i : auto =
  let self = Topology.customer topo i in
  let e_up = Topology.escrow topo (i - 1) and e_down = Topology.escrow topo i in
  A.make
    ~name:("chloe" ^ string_of_int i)
    ~initial:"await_p"
    ~nodes:
      [
        ( "await_p",
          A.input
            [
              on_p topo (i - 1) "prepare";
              on_decision topo self false "done_refunded";
            ] );
        ( "prepare",
          A.output ~to_:e_down ~message:(Env.money_of i)
            ~next:"await_decision" () );
        ( "await_decision",
          A.input
            [
              on_decision topo self true "await_paid";
              on_decision topo self false "await_refund";
            ] );
        ( "await_paid",
          A.input [ Env.recv e_up "$" (Env.is_money (i - 1)) "done_paid" ] );
        ( "await_refund",
          A.input [ Env.recv e_down "$" (Env.is_money i) "done_refunded" ] );
        ("done_paid", Env.final self "paid");
        ("done_refunded", Env.final self "refunded");
      ] ()

(* Bob submits his receipt χ to the notary each time his incoming leg is
   announced prepared, and is paid after χc or gives up at χa. *)
let bob topo : auto =
  let n = Topology.hops topo in
  let self = Topology.bob topo and e_up = Topology.escrow topo (n - 1) in
  let send_chi next =
    A.output ~to_:(Topology.aux_base topo)
      ~act:(fun _ ctx _ ->
        E.observe ctx (Obs.Cert_issued { by = self; kind = Obs.Chi }))
      ~message:(fun env _ _ -> Msg.Chi (Env.make_chi env))
      ~next ()
  in
  A.make ~name:"bob" ~initial:"await_p"
    ~nodes:
      [
        ( "await_p",
          A.input
            [
              on_p topo (n - 1) "send_chi";
              on_decision topo self false "done_aborted";
            ] );
        ("send_chi", send_chi "await_decision");
        ( "await_decision",
          A.input
            [
              on_p topo (n - 1) "send_chi";
              on_decision topo self true "await_paid";
              on_decision topo self false "done_aborted";
            ] );
        ( "await_paid",
          A.input
            [
              on_p topo (n - 1) "resend_chi";
              Env.recv e_up "$" (Env.is_money (n - 1)) "done_paid";
            ] );
        ("resend_chi", send_chi "await_paid");
        ("done_paid", Env.final self "paid");
        ("done_aborted", Env.final self "aborted");
      ] ()

(* Escrows: deposit on the prepare instruction (a deposit the book refuses
   is refused in place), announce the prepared leg downstream (the signed
   P message doubles as the prepared-notice, its window the notary's
   deadline), and settle on the notary's decision. *)
let escrow topo cfg i : auto =
  let self = Topology.escrow topo i in
  let cust_up = Topology.customer topo i in
  let cust_down = Topology.customer topo (i + 1) in
  let tm = Topology.aux_base topo in
  let is_prepare _ = function Msg.Money _ -> true | _ -> false in
  let deposit env ctx _ _ = Env.deposit env ctx i in
  A.make
    ~name:("escrow" ^ string_of_int i)
    ~initial:"await_money"
    ~nodes:
      [
        ( "await_money",
          A.input
            [
              A.on_receive ~from_:(A.One cust_up) ~describe:"$"
                ~accept:(fun env m -> is_prepare env m && Env.can_fund env i)
                ~act:deposit ~next:"send_p" ();
              A.on_receive ~from_:(A.One cust_up) ~describe:"$, funds short"
                ~accept:is_prepare ~act:deposit ~next:"await_money" ();
            ] );
        ( "send_p",
          A.output ~to_:cust_down
            ~message:(fun env _ _ ->
              Msg.Promise_p
                (Xcrypto.Auth.sign_value (Env.signer_of env self)
                   ~put:Msg.ser_promise_p
                   { p_escrow = self; p_customer = cust_down; a = cfg.deadline }))
            ~next:"await_decision" () );
        ( "await_decision",
          A.input
            [
              Env.recv tm "χc" (decision_is topo true) "release";
              Env.recv tm "χa" (decision_is topo false) "refund";
            ] );
        ( "release",
          A.output ~to_:cust_down
            ~act:(fun env ctx _ -> Env.release env ctx i)
            ~message:(Env.money_of i) ~next:"done_released" () );
        ( "refund",
          A.output ~to_:cust_up
            ~act:(fun env ctx _ -> Env.refund env ctx i)
            ~message:(Env.money_of i) ~next:"done_refunded" () );
        ("done_released", Env.final self "released");
        ("done_refunded", Env.final self "refunded");
      ] ()

(* The notary: Executed iff Bob's receipt arrives before the deadline T on
   its own clock (an absolute local time), announced to every customer and
   escrow, pids 0 .. 2n in order; then it is done. *)
let notary topo cfg : auto =
  let self = Topology.aux_base topo in
  let bob = Topology.bob topo in
  let decide commit env ctx store _ = Env.decide env ctx store ~tm:self commit in
  A.make ~name:"notary" ~initial:"await_receipt"
    ~nodes:
      (( "await_receipt",
         A.input
           [
             A.on_local_time ~at:cfg.deadline ~act:(decide false) ~next:"announce0";
             A.on_receive ~from_:(A.One bob) ~describe:"χ"
               ~accept:(fun env -> function
                 | Msg.Chi sv -> Env.chi_ok env sv | _ -> false)
               ~act:(decide true) ~next:"announce0" ();
             A.on_receive ~from_:(A.One bob) ~describe:"bad receipt"
               ~accept:(fun _ -> function Msg.Chi _ -> true | _ -> false)
               ~act:(fun _ ctx _ _ ->
                 E.observe ctx (Obs.Rejected { pid = self; what = "bad receipt" }))
               ~next:"await_receipt" ();
           ] )
      :: Env.announce ~tm:self) ()

let template ~hops cfg =
  let topo = Topology.create ~hops in
  Array.init (Topology.payment_count topo + 1) (fun pid ->
      match Topology.role_of topo pid with
      | Some Topology.Alice -> alice topo
      | Some (Topology.Connector i) -> connector topo i
      | Some Topology.Bob -> bob topo
      | Some (Topology.Escrow i) -> escrow topo cfg i
      | Some (Topology.Aux _) | None -> notary topo cfg)
