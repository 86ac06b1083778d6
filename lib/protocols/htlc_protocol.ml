open Sim
module A = Anta.Automaton
module Store = Anta.Store
module E = Engine
module HL = Xcrypto.Hashlock

type inst = {
  env : Env.t;
  preimage : HL.preimage;
  lock : HL.lock;
  locks : HL.lock option array;
}

type auto = (inst, Msg.t, Obs.t) A.t
type template = auto array

let instance (env : Env.t) ~seed =
  let preimage = HL.fresh (Rng.create ~seed) in
  {
    env;
    preimage;
    lock = HL.lock_of preimage;
    locks = Array.make (Topology.hops env.Env.topo) None;
  }

let window_of (params : Params.t) i =
  let p = params.Params.input in
  let step = Sim_time.add p.Params.sigma p.Params.delta in
  let hop = Params.up ~drift_ppm:p.drift_ppm (Sim_time.add step p.margin) in
  Sim_time.scale hop ~num:(((p.Params.hops - i) * 4) + 2) ~den:1

(* Applied in full: a partial application of Env's would allocate a
   closure at every guard and message. *)
let money_of i (inst : inst) ctx store = Env.money_of i inst.env ctx store
let is_money i (inst : inst) m = Env.is_money i inst.env m

let is_setup _ = function Msg.Htlc_setup _ -> true | _ -> false
let is_key _ = function Msg.Htlc_key _ -> true | _ -> false
let is_claim _ = function Msg.Htlc_claim _ -> true | _ -> false

(* The saved setup's lock, announced for leg [i]. *)
let setup_of i (inst : inst) store =
  match Store.data store "setup" with
  | Msg.Htlc_setup { lock; _ } ->
      Msg.Htlc_setup { lock; amount = Env.amount_at inst.env i }
  | m -> m

(* Escrow e_i: takes c_i's deposit under the lock c_i sends, tells c_{i+1}
   its incoming leg exists, then pays c_{i+1} against the preimage before
   the leg's timelock (revealing the key upstream) or refunds c_i at it.
   A deposit the book refuses, a claim before any contract and a claim
   with the wrong preimage are refused in place. *)
let escrow topo params i : auto =
  let self = Topology.escrow topo i in
  let cust_up = Topology.customer topo i in
  let cust_down = Topology.customer topo (i + 1) in
  let setup_ok (inst : inst) = function
    | Msg.Htlc_setup { amount; _ } -> amount = Env.amount_at inst.env i
    | _ -> false
  in
  let claim_ok (inst : inst) = function
    | Msg.Htlc_claim { preimage } -> (
        match inst.locks.(i) with
        | Some lock -> HL.matches lock preimage
        | None -> false)
    | _ -> false
  in
  let reject what _ ctx _ _ = E.observe ctx (Obs.Rejected { pid = self; what }) in
  A.make
    ~name:("escrow" ^ string_of_int i)
    ~initial:"await_setup"
    ~nodes:
      [
        ( "await_setup",
          A.input
            [
              A.on_receive ~from_:(A.One cust_up) ~describe:"setup"
                ~accept:(fun inst m -> setup_ok inst m && Env.can_fund inst.env i)
                ~save_msg:"setup" ~save_now:[ "u" ]
                ~act:(fun inst ctx _ m ->
                  (match m with
                  | Some (Msg.Htlc_setup { lock; _ }) -> inst.locks.(i) <- Some lock
                  | _ -> ());
                  Env.deposit inst.env ctx i)
                ~next:"fwd_setup" ();
              A.on_receive ~from_:(A.One cust_up) ~describe:"setup, funds short"
                ~accept:setup_ok
                ~act:(fun inst ctx _ _ -> Env.deposit inst.env ctx i)
                ~next:"await_setup" ();
              A.on_receive ~from_:(A.One cust_down) ~describe:"claim" ~accept:is_claim
                ~act:(reject "claim: no contract") ~next:"await_setup" ();
            ] );
        ( "fwd_setup",
          A.output ~to_:cust_down
            ~message:(fun _ _ store -> Store.data store "setup")
            ~next:"await_claim" () );
        ( "await_claim",
          A.input
            [
              A.on_deadline ~base:"u" ~offset:(window_of params i)
                ~next:"refund" ();
              A.on_receive ~from_:(A.One cust_down) ~describe:"claim(s), H(s) = lock"
                ~accept:claim_ok ~save_msg:"claim" ~next:"pay_down" ();
              A.on_receive ~from_:(A.One cust_down) ~describe:"claim, wrong preimage"
                ~accept:is_claim
                ~act:(reject "claim: wrong preimage")
                ~next:"await_claim" ();
            ] );
        ( "pay_down",
          A.output ~to_:cust_down
            ~act:(fun inst ctx _ -> Env.release inst.env ctx i)
            ~message:(money_of i) ~next:"reveal" () );
        ( "reveal",
          A.output ~to_:cust_up
            ~message:(fun _ _ store ->
              match Store.data store "claim" with
              | Msg.Htlc_claim { preimage } -> Msg.Htlc_key { preimage }
              | m -> m)
            ~next:"done_released" () );
        ( "refund",
          A.output ~to_:cust_up
            ~act:(fun inst ctx _ -> Env.refund inst.env ctx i)
            ~message:(money_of i) ~next:"done_refunded" () );
        ("done_released", Env.final self "released");
        ("done_refunded", Env.final self "refunded");
      ] ()

(* Customer c_i, i < n: on learning the lock (from Bob's invoice for Alice,
   from the upstream escrow's setup notice for connectors), fund the
   outgoing leg under it; then either the leg is refunded, or the key is
   revealed and claims the incoming leg (Alice's receipt is the bare key). *)
let customer topo i : auto =
  let self = Topology.customer topo i in
  let e_down = Topology.escrow topo i in
  let lock_from =
    if i = 0 then Topology.bob topo else Topology.escrow topo (i - 1)
  in
  let learned _ ctx _ _ =
    E.observe ctx (Obs.Note { pid = self; what = "preimage-learned" })
  in
  let claim =
    if i = 0 then
      [ ("done_receipt", Env.final self "preimage-receipt") ]
    else
      let e_up = Topology.escrow topo (i - 1) in
      [
        ( "claim",
          A.output ~to_:e_up
            ~message:(fun _ _ store ->
              match Store.data store "key" with
              | Msg.Htlc_key { preimage } -> Msg.Htlc_claim { preimage }
              | m -> m)
            ~next:"await_payment" () );
        ( "await_payment",
          A.input [ Env.recv e_up "$" (is_money (i - 1)) "done_paid" ] );
        ("done_paid", Env.final self "paid");
      ]
  in
  A.make
    ~name:(if i = 0 then "alice" else "chloe" ^ string_of_int i)
    ~initial:"await_lock"
    ~nodes:
      ([
         ( "await_lock",
           A.input
             [
               A.on_receive ~from_:(A.One lock_from) ~describe:"setup" ~accept:is_setup
                 ~save_msg:"setup" ~next:"fund" ();
             ] );
         ( "fund",
           A.output ~to_:e_down
             ~message:(fun inst _ store -> setup_of i inst store)
             ~next:"await_outcome" () );
         ( "await_outcome",
           A.input
             [
               A.on_receive ~from_:(A.One e_down) ~describe:"key" ~accept:is_key
                 ~save_msg:"key" ~act:learned
                 ~next:(if i = 0 then "done_receipt" else "claim")
                 ();
               Env.recv e_down "$refund" (is_money i) "done_refunded";
             ] );
         ("done_refunded", Env.final self "refunded");
       ]
      @ claim) ()

(* Bob: sends Alice the invoice (the lock), claims his incoming leg with
   the preimage each time it is announced, and is paid. *)
let bob topo : auto =
  let n = Topology.hops topo in
  let self = Topology.bob topo in
  let e_up = Topology.escrow topo (n - 1) in
  A.make ~name:"bob" ~initial:"invoice"
    ~nodes:
      [
        ( "invoice",
          A.output ~to_:(Topology.alice topo)
            ~message:(fun inst _ _ ->
              Msg.Htlc_setup { lock = inst.lock; amount = inst.env.Env.value })
            ~next:"await" () );
        ( "await",
          A.input
            [
              Env.recv e_up "setup" is_setup "claim";
              Env.recv e_up "$" (is_money (n - 1)) "done_paid";
            ] );
        ( "claim",
          A.output ~to_:e_up
            ~message:(fun inst _ _ -> Msg.Htlc_claim { preimage = inst.preimage })
            ~next:"await" () );
        ("done_paid", Env.final self "paid");
      ] ()

let template (params : Params.t) =
  let topo = Topology.create ~hops:params.Params.input.Params.hops in
  Array.init (Topology.payment_count topo) (fun pid ->
      match Topology.role_of topo pid with
      | Some Topology.Alice -> customer topo 0
      | Some (Topology.Connector i) -> customer topo i
      | Some Topology.Bob -> bob topo
      | Some (Topology.Escrow i) -> escrow topo params i
      | Some (Topology.Aux _) | None -> assert false)
