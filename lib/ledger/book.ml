type deposit_id = int

type error =
  | Unknown_account of int
  | Insufficient_funds of { account : int; has : int; needs : int }
  | Unknown_deposit of deposit_id
  | Already_resolved of deposit_id

type deposit_status = Held | Released of int | Refunded

type deposit_rec = {
  depositor : int;
  amount : int;
  mutable status : deposit_status;
}

type t = {
  currency : string;
  balances : (int, int) Hashtbl.t;
  mutable owners : int list;  (** the accounts, newest first *)
  deposits : (deposit_id, deposit_rec) Hashtbl.t;
      (** issued deposits, less the resolved ones a caller forgot *)
  mutable next_id : deposit_id;
  mutable pool : int;  (** sum of [Held] deposit amounts *)
  mutable initial_supply : int;
}

let create ~currency =
  {
    currency;
    balances = Hashtbl.create 8;
    owners = [];
    deposits = Hashtbl.create 8;
    next_id = 0;
    pool = 0;
    initial_supply = 0;
  }

(* Every lookup reads through [Hashtbl.find], not [find_opt]: no [Some]
   box per deposit, release or refund. *)
let open_account t ~owner ~balance =
  if balance < 0 then invalid_arg "Book.open_account: negative balance";
  match Hashtbl.find t.balances owner with
  | b when b = balance -> ()
  | _ -> invalid_arg "Book.open_account: account exists with other balance"
  | exception Not_found ->
      Hashtbl.add t.balances owner balance;
      t.owners <- owner :: t.owners;
      t.initial_supply <- t.initial_supply + balance

let has_account t owner = Hashtbl.mem t.balances owner
let balance t owner =
  match Hashtbl.find t.balances owner with b -> b | exception Not_found -> 0

let accounts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.balances []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let debit t account amount =
  match Hashtbl.find t.balances account with
  | has ->
      if has < amount then Error (Insufficient_funds { account; has; needs = amount })
      else begin
        Hashtbl.replace t.balances account (has - amount);
        Ok ()
      end
  | exception Not_found -> Error (Unknown_account account)

let credit t account amount =
  match Hashtbl.find t.balances account with
  | has ->
      Hashtbl.replace t.balances account (has + amount);
      Ok ()
  | exception Not_found -> Error (Unknown_account account)

let transfer t ~src ~dst ~amount =
  if amount < 0 then invalid_arg "Book.transfer: negative amount";
  if not (has_account t dst) then Error (Unknown_account dst)
  else
    match debit t src amount with
    | Error _ as e -> e
    | Ok () ->
        (match credit t dst amount with Ok () -> () | Error _ -> assert false);
        Ok ()

let deposit t ~from_ ~amount =
  if amount < 0 then invalid_arg "Book.deposit: negative amount";
  match debit t from_ amount with
  | Error e -> Error e
  | Ok () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.add t.deposits id { depositor = from_; amount; status = Held };
      t.pool <- t.pool + amount;
      Ok id

(* The only writer of a deposit's status once it is issued: a [Held]
   deposit leaves the pool here, so [pool] is the sum of held amounts. *)
let settle t d status =
  d.status <- status;
  t.pool <- t.pool - d.amount

(* Pays a held deposit [d] into [into] and settles it as [status]. *)
let resolve t id d ~into status =
  match d.status with
  | Released _ | Refunded -> Error (Already_resolved id)
  | Held -> (
      match credit t into d.amount with
      | Error _ as e -> e
      | Ok () ->
          settle t d status;
          Ok ())

let release t id ~to_ =
  if not (has_account t to_) then Error (Unknown_account to_)
  else
    match Hashtbl.find t.deposits id with
    | d -> resolve t id d ~into:to_ (Released to_)
    | exception Not_found -> Error (Unknown_deposit id)

let refund t id =
  match Hashtbl.find t.deposits id with
  | d -> resolve t id d ~into:d.depositor Refunded
  | exception Not_found -> Error (Unknown_deposit id)

let forget t id =
  match Hashtbl.find t.deposits id with
  | { status = Released _ | Refunded; _ } -> Hashtbl.remove t.deposits id
  | { status = Held; _ } -> ()
  | exception Not_found -> ()

let deposit_status t id =
  Option.map (fun d -> d.status) (Hashtbl.find_opt t.deposits id)

let pool_total t = t.pool

let total_supply t =
  Hashtbl.fold (fun _ b acc -> acc + b) t.balances 0 + pool_total t

(* The audit runs after every monitored dispatch, so its sound path is a
   closure-free loop over the owners that recomputes the supply from the
   stored balances and returns the constant [Ok ()]; the folds that name
   what went wrong run only once it has failed. *)
let rec sound t sum = function
  | [] -> sum + t.pool = t.initial_supply
  | owner :: rest ->
      let b = Hashtbl.find t.balances owner in
      b >= 0 && sound t (sum + b) rest

let audit t =
  if sound t 0 t.owners then Ok ()
  else
    let neg =
      Hashtbl.fold
        (fun k b acc -> if b < 0 then k :: acc else acc)
        t.balances []
    in
    if neg <> [] then
      Error
        (Fmt.str "negative balances for accounts %a"
           Fmt.(list ~sep:comma int)
           neg)
    else
      Error
        (Fmt.str "conservation violated: supply %d, initially %d"
           (total_supply t) t.initial_supply)

(* A top-level scan, so a monitor step over sound books allocates
   nothing. *)
let rec first_unsound_from books i =
  if i = Array.length books then -1
  else if sound books.(i) 0 books.(i).owners then
    first_unsound_from books (i + 1)
  else i

let first_unsound books = first_unsound_from books 0

let pp_error ppf = function
  | Unknown_account a -> Fmt.pf ppf "unknown account %d" a
  | Insufficient_funds { account; has; needs } ->
      Fmt.pf ppf "account %d has %d, needs %d" account has needs
  | Unknown_deposit d -> Fmt.pf ppf "unknown deposit %d" d
  | Already_resolved d -> Fmt.pf ppf "deposit %d already resolved" d

let pp ppf t =
  Fmt.pf ppf "@[<v>book (%s): %a; pool=%d@]" t.currency
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any ":") int int))
    (accounts t) (pool_total t)
