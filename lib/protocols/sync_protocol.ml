open Anta
module A = Automaton
module E = Sim.Engine

type auto = (Env.t, Msg.t, Obs.t) A.t

(* Every guard, act and message below is built once per template and reads
   the payment's data from the env it is dispatched with. Only the role
   layout (pids), the escrow index and the Thm 1 windows a_i / d_i are
   template constants. *)

let chi_ok (env : Env.t) = function
  | Msg.Chi sv -> Env.chi_ok env sv
  | _ -> false

let is_g i env = function
  | Msg.Promise_g sv -> Env.promise_g_ok env ~escrow_index:i sv
  | _ -> false

let is_p i env = function
  | Msg.Promise_p sv -> Env.promise_p_ok env ~escrow_index:i sv
  | _ -> false

(* Acts run only on a message their guard accepted, and every χ guard is
   [Env.chi_ok]: [valid] records that verdict instead of checking the MAC
   again. *)
let cert_received_note self ctx msg =
  match msg with
  | Some (Msg.Chi _) ->
      E.observe ctx (Obs.Cert_received { pid = self; kind = Obs.Chi; valid = true })
  | Some _ | None -> ()

(* e_i: issue G(d_i); take the deposit; issue P(a_i); then forward χ and pay
   downstream, or time out and refund. The held deposit is the payment's,
   kept in [env.deposits.(i)]. *)
let escrow_automaton topo (params : Params.t) i : auto =
  let self = Topology.escrow topo i in
  let cust_up = Topology.customer topo i in
  let cust_down = Topology.customer topo (i + 1) in
  let a_i = params.Params.a.(i) in
  let d_i = params.Params.d.(i) in
  A.make
    ~name:("escrow" ^ string_of_int i)
    ~initial:"send_g"
    ~nodes:
      [
        ( "send_g",
          A.output ~to_:cust_up
            ~message:(fun env _ _ ->
              Msg.Promise_g
                (Xcrypto.Auth.sign_value (Env.signer_of env self)
                   ~put:Msg.ser_promise_g
                   { Msg.g_escrow = self; g_customer = cust_up; d = d_i }))
            ~next:"await_money" () );
        ( "await_money",
          A.input
            [
              A.on_receive ~from_:(A.One cust_up) ~describe:"$"
                ~accept:(Env.is_money i) ~save_now:[ "u" ]
                ~act:(fun env ctx _ _ -> Env.deposit env ctx i)
                ~next:"send_p" ();
            ] );
        ( "send_p",
          A.output ~to_:cust_down
            ~message:(fun env _ _ ->
              Msg.Promise_p
                (Xcrypto.Auth.sign_value (Env.signer_of env self)
                   ~put:Msg.ser_promise_p
                   { Msg.p_escrow = self; p_customer = cust_down; a = a_i }))
            ~next:"await_chi" () );
        ( "await_chi",
          A.input
            [
              (* deadline first: at v = u + a_i the strict window is closed *)
              A.on_deadline ~base:"u" ~offset:a_i ~next:"refund" ();
              A.on_receive ~from_:(A.One cust_down) ~describe:"χ" ~accept:chi_ok
                ~save_msg:"chi"
                ~act:(fun _ ctx _ m -> cert_received_note self ctx m)
                ~next:"fwd_chi" ();
            ] );
        ( "fwd_chi",
          A.output ~to_:cust_up
            ~message:(fun _ _ store -> Store.data store "chi")
            ~next:"pay_down" () );
        ( "pay_down",
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

(* Chloe_i, 0 < i < n. *)
let connector_automaton topo i : auto =
  let self = Topology.customer topo i in
  let e_down = Topology.escrow topo i in
  let e_up = Topology.escrow topo (i - 1) in
  A.make
    ~name:("chloe" ^ string_of_int i)
    ~initial:"await_g"
    ~nodes:
      [
        ("await_g", A.input [ Env.recv e_down "G" (is_g i) "await_p" ]);
        ("await_p", A.input [ Env.recv e_up "P" (is_p (i - 1)) "send_money" ]);
        ( "send_money",
          A.output ~to_:e_down ~message:(Env.money_of i) ~next:"await_outcome" ()
        );
        ( "await_outcome",
          A.input
            [
              Env.recv e_down "$refund" (Env.is_money i) "done_refunded";
              A.on_receive ~from_:(A.One e_down) ~describe:"χ" ~accept:chi_ok
                ~save_msg:"chi"
                ~act:(fun _ ctx _ m -> cert_received_note self ctx m)
                ~next:"fwd_chi" ();
            ] );
        ( "fwd_chi",
          A.output ~to_:e_up
            ~message:(fun _ _ store -> Store.data store "chi")
            ~next:"await_payment" () );
        ( "await_payment",
          A.input [ Env.recv e_up "$" (Env.is_money (i - 1)) "done_paid" ] );
        ("done_refunded", Env.final self "refunded");
        ("done_paid", Env.final self "paid");
      ] ()

let alice_automaton topo : auto =
  let self = Topology.alice topo in
  let e0 = Topology.escrow topo 0 in
  A.make ~name:"alice" ~initial:"await_g"
    ~nodes:
      [
        ("await_g", A.input [ Env.recv e0 "G" (is_g 0) "send_money" ]);
        ( "send_money",
          A.output ~to_:e0 ~message:(Env.money_of 0) ~next:"await_outcome" () );
        ( "await_outcome",
          A.input
            [
              Env.recv e0 "$refund" (Env.is_money 0) "done_refunded";
              A.on_receive ~from_:(A.One e0) ~describe:"χ" ~accept:chi_ok
                ~act:(fun _ ctx _ m -> cert_received_note self ctx m)
                ~next:"done_certified" ();
            ] );
        ("done_refunded", Env.final self "refunded");
        ("done_certified", Env.final self "certified");
      ] ()

let bob_automaton topo : auto =
  let n = Topology.hops topo in
  let self = Topology.bob topo in
  let e_up = Topology.escrow topo (n - 1) in
  A.make ~name:"bob" ~initial:"await_p"
    ~nodes:
      [
        ("await_p", A.input [ Env.recv e_up "P" (is_p (n - 1)) "send_chi" ]);
        ( "send_chi",
          A.output ~to_:e_up
            ~act:(fun _ ctx _ ->
              E.observe ctx (Obs.Cert_issued { by = self; kind = Obs.Chi }))
            ~message:(fun env _ _ -> Msg.Chi (Env.make_chi env))
            ~next:"await_money" () );
        ( "await_money",
          A.input [ Env.recv e_up "$" (Env.is_money (n - 1)) "done_paid" ] );
        ("done_paid", Env.final self "paid");
      ] ()

type template = auto array

let template (params : Params.t) =
  let hops = Array.length params.Params.a in
  let topo = Topology.create ~hops in
  let build pid =
    match Topology.role_of topo pid with
    | Some Topology.Alice -> alice_automaton topo
    | Some Topology.Bob -> bob_automaton topo
    | Some (Topology.Connector i) -> connector_automaton topo i
    | Some (Topology.Escrow i) -> escrow_automaton topo params i
    | Some (Topology.Aux _) | None -> assert false
  in
  Array.init (Topology.payment_count topo) build
