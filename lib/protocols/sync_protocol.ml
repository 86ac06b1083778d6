open Anta
module A = Automaton
module E = Sim.Engine

type auto = (Env.t, Msg.t, Obs.t) A.t

(* Every guard, act and message below is built once per template and reads
   the payment's data from the env it is dispatched with. Only the role
   layout (pids), the escrow index and the Thm 1 windows a_i / d_i are
   template constants. *)

let is_money i (env : Env.t) = function
  | Msg.Money { amount } -> amount = Env.amount_at env i
  | _ -> false

let chi_ok (env : Env.t) = function
  | Msg.Chi sv -> Env.chi_ok env sv
  | _ -> false

(* Acts run only on a message their guard accepted, and every χ guard is
   [Env.chi_ok]: [valid] records that verdict instead of checking the MAC
   again. *)
let cert_received_note self ctx msg =
  match msg with
  | Some (Msg.Chi _) ->
      E.observe ctx (Obs.Cert_received { pid = self; kind = Obs.Chi; valid = true })
  | Some _ | None -> ()

let terminated self outcome _ ctx _store =
  E.observe ctx (Obs.Terminated { pid = self; outcome })

(* e_i: issue G(d_i); take the deposit; issue P(a_i); then forward χ and pay
   downstream, or time out and refund. The held deposit is the payment's,
   kept in [env.deposits.(i)]. *)
let escrow_automaton topo (params : Params.t) i : auto =
  let self = Topology.escrow topo i in
  let cust_up = Topology.customer topo i in
  let cust_down = Topology.customer topo (i + 1) in
  let a_i = params.Params.a.(i) in
  let d_i = params.Params.d.(i) in
  let take_deposit (env : Env.t) ctx _store _msg =
    let amount = Env.amount_at env i in
    match Ledger.Book.deposit env.books.(i) ~from_:cust_up ~amount with
    | Ok dep ->
        env.deposits.(i) <- dep;
        E.observe ctx
          (Obs.Deposited { escrow = self; depositor = cust_up; amount; deposit = dep })
    | Error e ->
        E.observe ctx
          (Obs.Rejected { pid = self; what = Fmt.str "deposit: %a" Ledger.Book.pp_error e })
  in
  let pay_down (env : Env.t) ctx _store =
    let dep = env.deposits.(i) in
    if dep < 0 then
      E.observe ctx (Obs.Rejected { pid = self; what = "release: no deposit" })
    else
      match Ledger.Book.release env.books.(i) dep ~to_:cust_down with
      | Ok () ->
          E.observe ctx
            (Obs.Released
               {
                 escrow = self;
                 deposit = dep;
                 to_ = cust_down;
                 amount = Env.amount_at env i;
               })
      | Error e ->
          E.observe ctx
            (Obs.Rejected
               { pid = self; what = Fmt.str "release: %a" Ledger.Book.pp_error e })
  in
  let pay_back (env : Env.t) ctx _store =
    let dep = env.deposits.(i) in
    if dep < 0 then
      E.observe ctx (Obs.Rejected { pid = self; what = "refund: no deposit" })
    else
      match Ledger.Book.refund env.books.(i) dep with
      | Ok () ->
          E.observe ctx
            (Obs.Refunded
               {
                 escrow = self;
                 deposit = dep;
                 depositor = cust_up;
                 amount = Env.amount_at env i;
               })
      | Error e ->
          E.observe ctx
            (Obs.Rejected
               { pid = self; what = Fmt.str "refund: %a" Ledger.Book.pp_error e })
  in
  let money (env : Env.t) _ _ = Msg.Money { amount = Env.amount_at env i } in
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
                   ~ser:Msg.ser_promise_g
                   { Msg.g_escrow = self; g_customer = cust_up; d = d_i }))
            ~next:"await_money" () );
        ( "await_money",
          A.input
            [
              A.on_receive ~from_:cust_up ~describe:"$" ~accept:(is_money i)
                ~save_now:[ "u" ] ~act:take_deposit ~next:"send_p" ();
            ] );
        ( "send_p",
          A.output ~to_:cust_down
            ~message:(fun env _ _ ->
              Msg.Promise_p
                (Xcrypto.Auth.sign_value (Env.signer_of env self)
                   ~ser:Msg.ser_promise_p
                   { Msg.p_escrow = self; p_customer = cust_down; a = a_i }))
            ~next:"await_chi" () );
        ( "await_chi",
          A.input
            [
              (* deadline first: at v = u + a_i the strict window is closed *)
              A.on_deadline ~base:"u" ~offset:a_i ~next:"refund" ();
              A.on_receive ~from_:cust_down ~describe:"χ" ~accept:chi_ok
                ~save_msg:"chi"
                ~act:(fun _ ctx _ m -> cert_received_note self ctx m)
                ~next:"fwd_chi" ();
            ] );
        ( "fwd_chi",
          A.output ~to_:cust_up
            ~message:(fun _ _ store -> Store.data store "chi")
            ~next:"pay_down" () );
        ( "pay_down",
          A.output ~to_:cust_down ~act:pay_down ~message:money
            ~next:"done_released" () );
        ( "refund",
          A.output ~to_:cust_up ~act:pay_back ~message:money
            ~next:"done_refunded" () );
        ("done_released", A.final ~act:(terminated self "released") ());
        ("done_refunded", A.final ~act:(terminated self "refunded") ());
      ]

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
        ( "await_g",
          A.input
            [
              A.on_receive ~from_:e_down ~describe:"G"
                ~accept:(fun env -> function
                  | Msg.Promise_g sv -> Env.promise_g_ok env ~escrow_index:i sv
                  | _ -> false)
                ~next:"await_p" ();
            ] );
        ( "await_p",
          A.input
            [
              A.on_receive ~from_:e_up ~describe:"P"
                ~accept:(fun env -> function
                  | Msg.Promise_p sv ->
                      Env.promise_p_ok env ~escrow_index:(i - 1) sv
                  | _ -> false)
                ~next:"send_money" ();
            ] );
        ( "send_money",
          A.output ~to_:e_down
            ~message:(fun env _ _ -> Msg.Money { amount = Env.amount_at env i })
            ~next:"await_outcome" () );
        ( "await_outcome",
          A.input
            [
              A.on_receive ~from_:e_down ~describe:"$refund"
                ~accept:(is_money i) ~next:"done_refunded" ();
              A.on_receive ~from_:e_down ~describe:"χ" ~accept:chi_ok
                ~save_msg:"chi"
                ~act:(fun _ ctx _ m -> cert_received_note self ctx m)
                ~next:"fwd_chi" ();
            ] );
        ( "fwd_chi",
          A.output ~to_:e_up
            ~message:(fun _ _ store -> Store.data store "chi")
            ~next:"await_payment" () );
        ( "await_payment",
          A.input
            [
              A.on_receive ~from_:e_up ~describe:"$"
                ~accept:(is_money (i - 1)) ~next:"done_paid" ();
            ] );
        ("done_refunded", A.final ~act:(terminated self "refunded") ());
        ("done_paid", A.final ~act:(terminated self "paid") ());
      ]

let alice_automaton topo : auto =
  let self = Topology.alice topo in
  let e0 = Topology.escrow topo 0 in
  A.make ~name:"alice" ~initial:"await_g"
    ~nodes:
      [
        ( "await_g",
          A.input
            [
              A.on_receive ~from_:e0 ~describe:"G"
                ~accept:(fun env -> function
                  | Msg.Promise_g sv -> Env.promise_g_ok env ~escrow_index:0 sv
                  | _ -> false)
                ~next:"send_money" ();
            ] );
        ( "send_money",
          A.output ~to_:e0
            ~message:(fun env _ _ -> Msg.Money { amount = Env.amount_at env 0 })
            ~next:"await_outcome" () );
        ( "await_outcome",
          A.input
            [
              A.on_receive ~from_:e0 ~describe:"$refund" ~accept:(is_money 0)
                ~next:"done_refunded" ();
              A.on_receive ~from_:e0 ~describe:"χ" ~accept:chi_ok
                ~act:(fun _ ctx _ m -> cert_received_note self ctx m)
                ~next:"done_certified" ();
            ] );
        ("done_refunded", A.final ~act:(terminated self "refunded") ());
        ("done_certified", A.final ~act:(terminated self "certified") ());
      ]

let bob_automaton topo : auto =
  let n = Topology.hops topo in
  let self = Topology.bob topo in
  let e_up = Topology.escrow topo (n - 1) in
  A.make ~name:"bob" ~initial:"await_p"
    ~nodes:
      [
        ( "await_p",
          A.input
            [
              A.on_receive ~from_:e_up ~describe:"P"
                ~accept:(fun env -> function
                  | Msg.Promise_p sv ->
                      Env.promise_p_ok env ~escrow_index:(n - 1) sv
                  | _ -> false)
                ~next:"send_chi" ();
            ] );
        ( "send_chi",
          A.output ~to_:e_up
            ~act:(fun _ ctx _ ->
              E.observe ctx (Obs.Cert_issued { by = self; kind = Obs.Chi }))
            ~message:(fun env _ _ -> Msg.Chi (Env.make_chi env))
            ~next:"await_money" () );
        ( "await_money",
          A.input
            [
              A.on_receive ~from_:e_up ~describe:"$" ~accept:(is_money (n - 1))
                ~next:"done_paid" ();
            ] );
        ("done_paid", A.final ~act:(terminated self "paid") ());
      ]

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

let automaton t pid =
  if pid < 0 || pid >= Array.length t then
    invalid_arg "Sync_protocol.automaton: not a payment participant";
  t.(pid)

let handlers t env pid = fst (Executor.handlers (automaton t pid) env ())

let check_all t =
  let pids = List.init (Array.length t) Fun.id in
  let rec go = function
    | [] -> Ok ()
    | pid :: rest -> (
        let auto = automaton t pid in
        match A.check auto with
        | Ok () -> go rest
        | Error errs ->
            Error
              (Fmt.str "automaton %s: %a" (A.name auto)
                 Fmt.(list ~sep:(any "; ") A.pp_check_error)
                 errs))
  in
  match go pids with
  | Error _ as e -> e
  | Ok () -> (
      (* per-automaton checks passed; now the channels must carry the
         conversation (no dangling sends, no deaf receivers) *)
      let network = List.map (fun pid -> (pid, automaton t pid)) pids in
      match Anta.Network_check.(errors (check network)) with
      | [] -> Ok ()
      | issues ->
          Error
            (Fmt.str "network wiring: %a"
               Fmt.(list ~sep:(any "; ") Anta.Network_check.pp_issue)
               issues))

(* C's structural clause reads only the pid layout: deadline offsets (the
   params) never reach [Automaton.check] or [Network_check], so one check
   per path length serves every run. Domains racing on a missing entry
   compute equal results; the CAS loop keeps whichever map lands. *)
module Int_map = Map.Make (Int)

let well_formed_memo : (unit, string) result Int_map.t Atomic.t =
  Atomic.make Int_map.empty

let well_formed ~hops =
  match Int_map.find_opt hops (Atomic.get well_formed_memo) with
  | Some r -> r
  | None ->
      let r =
        check_all (template (Params.derive (Params.default_input ~hops)))
      in
      let rec publish () =
        let m = Atomic.get well_formed_memo in
        if not (Atomic.compare_and_set well_formed_memo m (Int_map.add hops r m))
        then publish ()
      in
      publish ();
      r
