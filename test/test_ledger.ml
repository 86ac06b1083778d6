(* Tests for the escrow-ledger substrate: assets, multi-asset bags, and
   the per-escrow book with its conservation invariants. *)

open Ledger

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let coin c n = Asset.make ~currency:c ~amount:n

let asset_tests =
  [
    Alcotest.test_case "make rejects negatives" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Asset.make: negative amount")
          (fun () -> ignore (Asset.make ~currency:"x" ~amount:(-1))));
  ]

let bag_tests =
  [
    Alcotest.test_case "of_list merges currencies" `Quick (fun () ->
        let b = Asset.Bag.of_list [ coin "a" 2; coin "b" 1; coin "a" 3 ] in
        check Alcotest.string "merged" "{5 a, 1 b}" (Fmt.str "%a" Asset.Bag.pp b));
    Alcotest.test_case "to_list omits zero entries and sorts" `Quick (fun () ->
        (* read through [pp], which renders the bag's [to_list] *)
        let b = Asset.Bag.of_list [ coin "z" 1; coin "a" 0; coin "b" 2 ] in
        check Alcotest.string "entries" "{2 b, 1 z}" (Fmt.str "%a" Asset.Bag.pp b));
    Alcotest.test_case "geq is pointwise" `Quick (fun () ->
        let big = Asset.Bag.of_list [ coin "a" 5; coin "b" 1 ] in
        let small = Asset.Bag.of_list [ coin "a" 2 ] in
        check Alcotest.bool "big>=small" true (Asset.Bag.geq big small);
        check Alcotest.bool "small>=big" false (Asset.Bag.geq small big));
    Alcotest.test_case "empty bag behaviour" `Quick (fun () ->
        check Alcotest.bool "empty" true (Asset.Bag.is_empty Asset.Bag.empty);
        check Alcotest.bool "geq empty" true
          (Asset.Bag.geq Asset.Bag.empty Asset.Bag.empty));
  ]

let book () =
  let b = Book.create ~currency:"cur" in
  Book.open_account b ~owner:0 ~balance:100;
  Book.open_account b ~owner:1 ~balance:50;
  Book.open_account b ~owner:2 ~balance:0;
  b

let ok = function Ok v -> v | Error _ -> Alcotest.fail "unexpected error"

(* the balances of the three accounts of [book ()], and its supply *)
let balances b = List.map (Book.balance b) [ 0; 1; 2 ]
let supply b = List.fold_left ( + ) (Book.pool_total b) (balances b)

let book_tests =
  [
    Alcotest.test_case "opening balances" `Quick (fun () ->
        let b = book () in
        check Alcotest.int "0" 100 (Book.balance b 0);
        check Alcotest.int "unknown" 0 (Book.balance b 99);
        check Alcotest.int "supply" 150 (supply b));
    Alcotest.test_case "audit allocates nothing while the book is sound"
      `Quick (fun () ->
        let b = book () in
        (* six owners, and held deposits in the pool *)
        List.iter
          (fun owner -> Book.open_account b ~owner ~balance:owner)
          [ 3; 4; 5 ];
        ignore (ok (Book.deposit b ~from_:0 ~amount:30));
        ignore (ok (Book.deposit b ~from_:1 ~amount:5));
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        let idle = words (fun () -> ()) in
        let audits =
          words (fun () ->
              for _ = 1 to 1_000 do
                if Result.is_error (Book.audit b) then Alcotest.fail "unsound"
              done)
        in
        check Alcotest.int "words over 1,000 audits" 0
          (int_of_float (audits -. idle)));
    Alcotest.test_case "balance reads allocate nothing, absent accounts read 0"
      `Quick (fun () ->
        let b = book () in
        Book.open_account b ~owner:7 ~balance:0;
        check Alcotest.int "an absent account" 0 (Book.balance b 12345);
        check Alcotest.int "an open account at 0" 0 (Book.balance b 7);
        check Alcotest.bool "reading does not open it" false
          (Book.has_account b 12345);
        let reads = 1_000 in
        let sum = ref 0 in
        let before = Gc.minor_words () in
        for i = 1 to reads do
          sum := !sum + Book.balance b 0 + Book.balance b (100_000 + i)
        done;
        let words = Gc.minor_words () -. before in
        check Alcotest.int "the reads" (100 * reads) !sum;
        check (Alcotest.float 0.) "minor words over 2,000 reads" 0. words);
    Alcotest.test_case "idempotent reopen with same balance" `Quick (fun () ->
        let b = book () in
        Book.open_account b ~owner:0 ~balance:100;
        check Alcotest.int "unchanged" 100 (Book.balance b 0));
    Alcotest.test_case "reopen with different balance raises" `Quick (fun () ->
        let b = book () in
        Alcotest.check_raises "dup"
          (Invalid_argument "Book.open_account: account exists with other balance")
          (fun () -> Book.open_account b ~owner:0 ~balance:7));
    Alcotest.test_case "transfer moves value" `Quick (fun () ->
        let b = book () in
        ok (Book.transfer b ~src:0 ~dst:1 ~amount:30);
        check Alcotest.int "src" 70 (Book.balance b 0);
        check Alcotest.int "dst" 80 (Book.balance b 1));
    Alcotest.test_case "transfer rejects insufficient funds" `Quick (fun () ->
        let b = book () in
        match Book.transfer b ~src:1 ~dst:0 ~amount:51 with
        | Error (Book.Insufficient_funds { account = 1; has = 50; needs = 51 }) -> ()
        | _ -> Alcotest.fail "expected insufficient funds");
    Alcotest.test_case "transfer rejects unknown accounts" `Quick (fun () ->
        let b = book () in
        check Alcotest.bool "src" true
          (Result.is_error (Book.transfer b ~src:9 ~dst:0 ~amount:1));
        check Alcotest.bool "dst" true
          (Result.is_error (Book.transfer b ~src:0 ~dst:9 ~amount:1)));
    Alcotest.test_case "forget drops only resolved deposits" `Quick (fun () ->
        let b = book () in
        let take () =
          match Book.deposit b ~from_:0 ~amount:10 with
          | Ok d -> d
          | Error _ -> Alcotest.fail "deposit"
        in
        let held = take () and paid = take () in
        ok (Book.release b paid ~to_:1);
        Book.forget b held;
        Book.forget b paid;
        check Alcotest.bool "held kept" true
          (Book.deposit_status b held = Some Book.Held);
        check Alcotest.bool "resolved gone" true
          (Book.deposit_status b paid = None);
        check Alcotest.bool "ids not reissued" true (take () > paid);
        check Alcotest.int "pool" 20 (Book.pool_total b);
        check Alcotest.bool "audit" true (Result.is_ok (Book.audit b)));
    Alcotest.test_case "deposit moves value into the pool" `Quick (fun () ->
        let b = book () in
        let dep = ok (Book.deposit b ~from_:0 ~amount:40) in
        check Alcotest.int "balance" 60 (Book.balance b 0);
        check Alcotest.int "pool" 40 (Book.pool_total b);
        check Alcotest.bool "held" true (Book.deposit_status b dep = Some Book.Held));
    Alcotest.test_case "release pays the target" `Quick (fun () ->
        let b = book () in
        let dep = ok (Book.deposit b ~from_:0 ~amount:40) in
        ok (Book.release b dep ~to_:1);
        check Alcotest.int "target" 90 (Book.balance b 1);
        check Alcotest.int "pool" 0 (Book.pool_total b);
        check Alcotest.bool "status" true
          (Book.deposit_status b dep = Some (Book.Released 1)));
    Alcotest.test_case "refund restores the depositor" `Quick (fun () ->
        let b = book () in
        let dep = ok (Book.deposit b ~from_:0 ~amount:40) in
        ok (Book.refund b dep);
        check Alcotest.int "restored" 100 (Book.balance b 0);
        check Alcotest.bool "status" true
          (Book.deposit_status b dep = Some Book.Refunded));
    Alcotest.test_case "double resolution is rejected" `Quick (fun () ->
        let b = book () in
        let dep = ok (Book.deposit b ~from_:0 ~amount:40) in
        ok (Book.release b dep ~to_:1);
        (match Book.refund b dep with
        | Error (Book.Already_resolved _) -> ()
        | _ -> Alcotest.fail "expected Already_resolved");
        match Book.release b dep ~to_:2 with
        | Error (Book.Already_resolved _) -> ()
        | _ -> Alcotest.fail "expected Already_resolved");
    Alcotest.test_case "unknown deposit is rejected" `Quick (fun () ->
        let b = book () in
        match Book.refund b 77 with
        | Error (Book.Unknown_deposit 77) -> ()
        | _ -> Alcotest.fail "expected Unknown_deposit");
    Alcotest.test_case "release to unknown account is rejected" `Quick (fun () ->
        let b = book () in
        let dep = ok (Book.deposit b ~from_:0 ~amount:10) in
        check Alcotest.bool "err" true (Result.is_error (Book.release b dep ~to_:9));
        (* deposit must remain resolvable *)
        ok (Book.refund b dep));
    Alcotest.test_case "audit passes on a fresh book" `Quick (fun () ->
        check Alcotest.bool "ok" true (Result.is_ok (Book.audit (book ()))));
    Alcotest.test_case "error rendering is informative" `Quick (fun () ->
        let s e = Fmt.str "%a" Book.pp_error e in
        check Alcotest.string "unknown" "unknown account 9" (s (Book.Unknown_account 9));
        check Alcotest.string "funds" "account 1 has 5, needs 7"
          (s (Book.Insufficient_funds { account = 1; has = 5; needs = 7 }));
        check Alcotest.string "dep" "unknown deposit 3" (s (Book.Unknown_deposit 3));
        check Alcotest.string "resolved" "deposit 3 already resolved"
          (s (Book.Already_resolved 3)));
    Alcotest.test_case "book and bag rendering smoke" `Quick (fun () ->
        let b = book () in
        let rendered = Fmt.str "%a" Book.pp b in
        check Alcotest.bool "mentions currency" true (String.length rendered > 5);
        let bag = Asset.Bag.of_list [ coin "btc" 2; coin "eth" 1 ] in
        let rendered_bag = Fmt.str "%a" Asset.Bag.pp bag in
        check Alcotest.bool "mentions btc" true
          (let n = String.length rendered_bag in
           let rec go i =
             i + 3 <= n && (String.sub rendered_bag i 3 = "btc" || go (i + 1))
           in
           go 0);
        check Alcotest.string "empty bag" "∅" (Fmt.str "%a" Asset.Bag.pp Asset.Bag.empty));
    Alcotest.test_case "negative amounts are rejected outright" `Quick
      (fun () ->
        let b = book () in
        Alcotest.check_raises "transfer"
          (Invalid_argument "Book.transfer: negative amount") (fun () ->
            ignore (Book.transfer b ~src:0 ~dst:1 ~amount:(-1)));
        Alcotest.check_raises "deposit"
          (Invalid_argument "Book.deposit: negative amount") (fun () ->
            ignore (Book.deposit b ~from_:0 ~amount:(-1))));
    qcheck
      (QCheck.Test.make ~name:"conservation under random op sequences"
         ~count:200
         QCheck.(list (pair (int_range 0 4) (pair (int_range 0 2) (int_bound 60))))
         (fun ops ->
           let b = book () in
           let deposits = ref [] in
           List.iter
             (fun (op, (acct, amount)) ->
               match op with
               | 0 -> ignore (Book.transfer b ~src:acct ~dst:((acct + 1) mod 3) ~amount)
               | 1 -> (
                   match Book.deposit b ~from_:acct ~amount with
                   | Ok d -> deposits := d :: !deposits
                   | Error _ -> ())
               | 2 -> (
                   match !deposits with
                   | d :: rest when amount mod 2 = 0 ->
                       ignore (Book.release b d ~to_:acct);
                       deposits := rest
                   | _ -> ())
               | 3 -> (
                   match !deposits with
                   | d :: rest ->
                       ignore (Book.refund b d);
                       deposits := rest
                   | [] -> ())
               | _ -> ignore (Book.refund b amount))
             ops;
           supply b = 150 && Result.is_ok (Book.audit b)));
  ]

(* ------------------- Book property suite (qcheck) --------------------- *)

(* A symbolic op language over the three fixed accounts, driven by random
   programs. [run_op] executes one op and returns its result; the suite
   checks the invariants the traffic subsystem leans on: conservation
   under any interleaving, at-most-once deposit resolution, and failures
   that leave the book exactly as it was. *)
type book_op =
  | Transfer of int * int * int
  | Deposit of int * int
  | Release of int * int  (** nth live deposit, recipient *)
  | Refund of int
  | Resolve_again of int  (** re-resolve the nth {e resolved} deposit *)
  | Ghost_account of int * int  (** op against an unopened account *)
  | Ghost_deposit of int  (** refund of a never-issued deposit id *)

let book_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map3 (fun s d a -> Transfer (s, d, a)) (int_bound 2) (int_bound 2) (int_bound 80));
        (4, map2 (fun f a -> Deposit (f, a)) (int_bound 2) (int_bound 80));
        (3, map2 (fun n to_ -> Release (n, to_)) (int_bound 4) (int_bound 2));
        (3, map (fun n -> Refund n) (int_bound 4));
        (2, map (fun n -> Resolve_again n) (int_bound 4));
        (1, map2 (fun a amt -> Ghost_account (a, amt)) (int_range 7 9) (int_bound 80));
        (1, map (fun d -> Ghost_deposit (d + 10_000)) (int_bound 5));
      ])

let book_op_print = function
  | Transfer (s, d, a) -> Printf.sprintf "transfer %d->%d %d" s d a
  | Deposit (f, a) -> Printf.sprintf "deposit %d %d" f a
  | Release (n, t) -> Printf.sprintf "release #%d ->%d" n t
  | Refund n -> Printf.sprintf "refund #%d" n
  | Resolve_again n -> Printf.sprintf "re-resolve #%d" n
  | Ghost_account (a, amt) -> Printf.sprintf "ghost-account %d %d" a amt
  | Ghost_deposit d -> Printf.sprintf "ghost-deposit %d" d

let book_ops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map book_op_print l))
    QCheck.Gen.(list_size (int_bound 40) book_op_gen)

let nth_opt l n = List.nth_opt l n

let book_prop_tests =
  let snapshot b = (balances b, Book.pool_total b) in
  (* the amount of each deposit the current program issued *)
  let amounts = Hashtbl.create 16 in
  (* Execute one op. Returns [`Failed_dirty] if the op errored yet the
     book changed, [`Double_resolution] if a resolved deposit resolved
     again, [`Ok] otherwise. [live]/[resolved] track deposit ids. *)
  let step b live resolved op =
    let pre = snapshot b in
    let result =
      match op with
      | Transfer (s, d, a) -> Book.transfer b ~src:s ~dst:d ~amount:a
      | Deposit (f, a) -> (
          match Book.deposit b ~from_:f ~amount:a with
          | Ok dep ->
              Hashtbl.replace amounts dep a;
              live := dep :: !live;
              Ok ()
          | Error e -> Error e)
      | Release (n, to_) -> (
          match nth_opt !live n with
          | None -> Ok ()
          | Some dep -> (
              match Book.release b dep ~to_ with
              | Ok () ->
                  live := List.filter (fun d -> d <> dep) !live;
                  resolved := dep :: !resolved;
                  Ok ()
              | Error e -> Error e))
      | Refund n -> (
          match nth_opt !live n with
          | None -> Ok ()
          | Some dep -> (
              match Book.refund b dep with
              | Ok () ->
                  live := List.filter (fun d -> d <> dep) !live;
                  resolved := dep :: !resolved;
                  Ok ()
              | Error e -> Error e))
      | Resolve_again n -> (
          match nth_opt !resolved n with
          | None -> Ok ()
          | Some dep -> (
              match Book.release b dep ~to_:0 with
              | Ok () -> raise Exit (* double resolution *)
              | Error e -> Error e))
      | Ghost_account (a, amt) ->
          Result.map (fun _ -> ()) (Book.deposit b ~from_:a ~amount:amt)
      | Ghost_deposit d -> Book.refund b d
    in
    match result with
    | Ok () -> `Ok
    | Error _ -> if snapshot b = pre then `Ok else `Failed_dirty op
  in
  let run_program ops =
    Hashtbl.reset amounts;
    let b = book () in
    let live = ref [] and resolved = ref [] in
    let dirty =
      List.filter_map
        (fun op ->
          match step b live resolved op with
          | `Ok -> None
          | `Failed_dirty op -> Some op)
        ops
    in
    (b, dirty)
  in
  [
    qcheck
      (QCheck.Test.make ~name:"audit and total supply hold under any program"
         ~count:300 book_ops_arb (fun ops ->
           let b, _ = run_program ops in
           (* the audit's verdict agrees with the supply summed here from
              the public balances and pool *)
           let sound =
             supply b = 150 && List.for_all (fun bal -> bal >= 0) (balances b)
           in
           Result.is_ok (Book.audit b) = sound && sound));
    qcheck
      (QCheck.Test.make
         ~name:"pool_total equals the held deposits after every op" ~count:300
         book_ops_arb (fun ops ->
           (* differential oracle for the running pool: recompute it from
              every issued id's public status and issued amount, after
              every op, failed ones included *)
           Hashtbl.reset amounts;
           let b = book () in
           let live = ref [] and resolved = ref [] in
           List.for_all
             (fun op ->
               ignore (step b live resolved op);
               let held =
                 List.fold_left
                   (fun acc id ->
                     match Book.deposit_status b id with
                     | Some Book.Held -> acc + Hashtbl.find amounts id
                     | Some _ -> acc
                     | None -> QCheck.Test.fail_reportf "issued id %d unknown" id)
                   0 (!live @ !resolved)
               in

               if Book.pool_total b <> held then
                 QCheck.Test.fail_reportf "after %s: pool_total %d, held %d"
                   (book_op_print op) (Book.pool_total b) held
               else supply b = List.fold_left ( + ) held (balances b))
             ops));
    qcheck
      (QCheck.Test.make ~name:"failed operations leave the book untouched"
         ~count:300 book_ops_arb (fun ops ->
           let _, dirty = run_program ops in
           match dirty with
           | [] -> true
           | op :: _ ->
               QCheck.Test.fail_reportf "book changed on failed %s"
                 (book_op_print op)));
    qcheck
      (QCheck.Test.make ~name:"a deposit resolves at most once" ~count:300
         book_ops_arb (fun ops ->
           (* [step] raises Exit if a second resolution of the same deposit
              ever succeeds; finishing the program is the property *)
           match run_program ops with _ -> true | exception Exit -> false));
    Alcotest.test_case "every error constructor is reachable" `Quick (fun () ->
        let b = book () in
        (match Book.transfer b ~src:9 ~dst:0 ~amount:1 with
        | Error (Book.Unknown_account 9) -> ()
        | _ -> Alcotest.fail "expected Unknown_account");
        (match Book.transfer b ~src:2 ~dst:0 ~amount:1 with
        | Error (Book.Insufficient_funds { account = 2; has = 0; needs = 1 }) -> ()
        | _ -> Alcotest.fail "expected Insufficient_funds");
        (match Book.refund b 777 with
        | Error (Book.Unknown_deposit 777) -> ()
        | _ -> Alcotest.fail "expected Unknown_deposit");
        let dep = ok (Book.deposit b ~from_:0 ~amount:5) in
        ok (Book.release b dep ~to_:1);
        (match Book.refund b dep with
        | Error (Book.Already_resolved d) when d = dep -> ()
        | _ -> Alcotest.fail "expected Already_resolved"));
  ]

let () =
  Alcotest.run "ledger"
    [
      ("asset", asset_tests);
      ("bag", bag_tests);
      ("book", book_tests);
      ("book_props", book_prop_tests);
    ]
