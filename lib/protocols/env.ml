open Xcrypto

type t = {
  topo : Topology.t;
  params : Params.t;
  payment : int;
  value : int;
  amounts : int array;
  books : Ledger.Book.t array;
  registry : Auth.registry;
  deposits : int array;
}

let signer_of t pid = Auth.signer_of t.registry pid

(* the first books' currency names, formatted once *)
let currencies = Array.init 8 (Printf.sprintf "cur%d")

let currency i =
  if i < Array.length currencies then currencies.(i)
  else Printf.sprintf "cur%d" i

let make ~topo ~params ?(payment = 1) ?(value = 1000) ?(commission = 10)
    ?amounts ?(seed = 7) ?books () =
  let n = Topology.hops topo in
  if value < 1 then invalid_arg "Env.make: value must be positive";
  if commission < 0 then invalid_arg "Env.make: negative commission";
  let amounts =
    match amounts with
    | None -> Array.init n (fun i -> value + (commission * (n - 1 - i)))
    | Some a ->
        (* per-leg override (graph routing: each edge sets its own
           commission); must still be a valid decreasing payment ladder
           ending at the value Bob is owed *)
        if Array.length a <> n then
          invalid_arg "Env.make: amounts array must have one amount per hop";
        if a.(n - 1) <> value then
          invalid_arg "Env.make: last amount must equal the payment value";
        Array.iteri
          (fun i x ->
            if x < value || (i < n - 1 && x < a.(i + 1)) then
              invalid_arg "Env.make: amounts must be decreasing toward Bob")
          a;
        Array.copy a
  in
  let books =
    match books with
    | Some shared ->
        (* shared books (load runs): the caller owns funding policy, so we
           only ensure the accounts this payment touches exist — never
           re-open a funded account with this payment's amounts *)
        if Array.length shared <> n then
          invalid_arg "Env.make: books array must have one book per hop";
        let ensure book owner =
          if not (Ledger.Book.has_account book owner) then
            Ledger.Book.open_account book ~owner ~balance:0
        in
        for i = 0 to n - 1 do
          ensure shared.(i) (Topology.customer topo i);
          ensure shared.(i) (Topology.customer topo (i + 1));
          ensure shared.(i) (Topology.escrow topo i)
        done;
        shared
    | None ->
        Array.init n (fun i ->
            let book = Ledger.Book.create ~currency:(currency i) in
            Ledger.Book.open_account book ~owner:(Topology.customer topo i)
              ~balance:amounts.(i);
            Ledger.Book.open_account book
              ~owner:(Topology.customer topo (i + 1))
              ~balance:0;
            Ledger.Book.open_account book ~owner:(Topology.escrow topo i)
              ~balance:0;
            book)
  in
  let registry = Auth.create ~seed in
  (* Register everyone up front so verification never depends on order:
     the customers (pids 0 .. n), then the escrows (n + 1 .. 2n). *)
  for pid = 0 to Topology.payment_count topo - 1 do
    ignore (Auth.register registry pid)
  done;
  {
    topo;
    params;
    payment;
    value;
    amounts;
    books;
    registry;
    deposits = Array.make n (-1);
  }

let amount_at t i = t.amounts.(i)

let chi_ok t (sv : Msg.chi_body Auth.signed) =
  let b = sv.Auth.payload in
  b.Msg.x_payment = t.payment
  && b.Msg.x_bob = Topology.bob t.topo
  && sv.Auth.author = Topology.bob t.topo
  && Auth.verify_value t.registry ~put:Msg.ser_chi sv

let make_chi t =
  let bob = Topology.bob t.topo in
  Auth.sign_value (signer_of t bob) ~put:Msg.ser_chi
    { Msg.x_payment = t.payment; x_bob = bob }

let promise_g_ok t ~escrow_index (sv : Msg.promise_g Auth.signed) =
  let e = Topology.escrow t.topo escrow_index in
  sv.Auth.author = e
  && sv.Auth.payload.Msg.g_escrow = e
  && Auth.verify_value t.registry ~put:Msg.ser_promise_g sv

let promise_p_ok t ~escrow_index (sv : Msg.promise_p Auth.signed) =
  let e = Topology.escrow t.topo escrow_index in
  sv.Auth.author = e
  && sv.Auth.payload.Msg.p_escrow = e
  && Auth.verify_value t.registry ~put:Msg.ser_promise_p sv

let decision_ok t ~tm (sv : Msg.decision_body Auth.signed) =
  sv.Auth.author = tm
  && sv.Auth.payload.Msg.dec_payment = t.payment
  && Auth.verify_value t.registry ~put:Msg.ser_decision sv

let funded_ok t ~escrow_index (sv : Msg.funded_body Auth.signed) =
  let e = Topology.escrow t.topo escrow_index in
  sv.Auth.author = e
  && sv.Auth.payload.Msg.f_escrow = e
  && sv.Auth.payload.Msg.f_payment = t.payment
  && Auth.verify_value t.registry ~put:Msg.ser_funded sv

let can_fund t i =
  let amount = t.amounts.(i) in
  let held = if t.deposits.(i) >= 0 then amount else 0 in
  Ledger.Book.balance t.books.(i) (Topology.customer t.topo i) + held >= amount

let reject t ctx i what =
  Sim.Engine.observe ctx
    (Obs.Rejected { pid = Topology.escrow t.topo i; what })

let deposit t ctx i =
  let cust_up = Topology.customer t.topo i in
  let amount = t.amounts.(i) in
  match Ledger.Book.deposit t.books.(i) ~from_:cust_up ~amount with
  | Ok dep ->
      t.deposits.(i) <- dep;
      Sim.Engine.observe ctx
        (Obs.Deposited
           {
             escrow = Topology.escrow t.topo i;
             depositor = cust_up;
             amount;
             deposit = dep;
           })
  | Error e -> reject t ctx i (Fmt.str "deposit: %a" Ledger.Book.pp_error e)

(* Release e_i's held deposit to c_(i+1), or refund it to c_i. *)
let settle t ctx i ~release =
  let dep = t.deposits.(i) and op = if release then "release" else "refund" in
  if dep < 0 then reject t ctx i (op ^ ": no deposit")
  else
    let escrow = Topology.escrow t.topo i and amount = t.amounts.(i) in
    let up = Topology.customer t.topo i in
    let down = Topology.customer t.topo (i + 1) in
    let book = t.books.(i) in
    match
      if release then Ledger.Book.release book dep ~to_:down
      else Ledger.Book.refund book dep
    with
    | Ok () ->
        Sim.Engine.observe ctx
          (if release then
             Obs.Released { escrow; deposit = dep; to_ = down; amount }
           else Obs.Refunded { escrow; deposit = dep; depositor = up; amount })
    | Error e -> reject t ctx i (Fmt.str "%s: %a" op Ledger.Book.pp_error e)

let release t ctx i = settle t ctx i ~release:true
let refund t ctx i = settle t ctx i ~release:false

let is_money i t = function
  | Msg.Money { amount } -> amount = t.amounts.(i)
  | _ -> false

let money_of i t _ _ = Msg.Money { amount = t.amounts.(i) }

let recv from_ describe accept next =
  Anta.Automaton.on_receive ~from_:(One from_) ~describe ~accept ~next ()

let decided ctx ~tm commit =
  Sim.Engine.observe ctx (Obs.Decision_made { by = tm; commit });
  Sim.Engine.observe ctx
    (Obs.Cert_issued { by = tm; kind = (if commit then Chi_commit else Chi_abort) })

let funded_report t i =
  let e = Topology.escrow t.topo i in
  Msg.Funded
    (Auth.sign_value (signer_of t e) ~put:Msg.ser_funded
       { Msg.f_escrow = e; f_payment = t.payment; f_amount = t.amounts.(i) })

let decide t ctx store ~tm commit =
  decided ctx ~tm commit;
  Anta.Store.set_data store "decision"
    (Msg.Tm_decision
       (Auth.sign_value (signer_of t tm) ~put:Msg.ser_decision
          { Msg.dec_payment = t.payment; dec_commit = commit }))

let final self outcome =
  Anta.Automaton.final
    ~act:(fun _ ctx _ ->
      Sim.Engine.observe ctx (Obs.Terminated { pid = self; outcome }))
    ()

let announce ~tm =
  let name pid = if pid = tm then "decided" else "announce" ^ string_of_int pid in
  let message _ _ store = Anta.Store.data store "decision" in
  List.init tm (fun pid ->
      (name pid, Anta.Automaton.output ~to_:pid ~message ~next:(name (pid + 1)) ()))
  @ [ ("decided", final tm "decided") ]
