(* Tests for the ANTA formalism: the store, automaton construction, the
   well-formedness checker (property C's executable core) and the executor
   semantics (pool buffering, branch priority, deadline guards). *)

open Anta
module A = Automaton
module E = Sim.Engine

let check = Alcotest.check

let empty_store () = Store.of_vars ~clocks:[||] ~datas:[||]

let store_tests =
  [
    Alcotest.test_case "clock set/get" `Quick (fun () ->
        let s = empty_store () in
        Store.set_clock s "u" 42;
        check Alcotest.int "u" 42 (Store.clock s "u"));
    Alcotest.test_case "unset clock raises with the name" `Quick (fun () ->
        let s : int Store.t = empty_store () in
        Alcotest.check_raises "unset"
          (Invalid_argument "Anta.Store.clock: w unset") (fun () ->
            ignore (Store.clock s "w")));
    Alcotest.test_case "data set/get" `Quick (fun () ->
        let s = empty_store () in
        Store.set_data s "m" "payload";
        check Alcotest.string "m" "payload" (Store.data s "m"));
    Alcotest.test_case "var listings" `Quick (fun () ->
        let s = empty_store () in
        Store.set_clock s "b" 1;
        Store.set_clock s "a" 2;
        Store.set_data s "x" 0;
        check Alcotest.(list string) "clocks" [ "a"; "b" ] (Store.clock_vars s);
        check Alcotest.(list string) "datas" [ "x" ] (Store.data_vars s));
  ]

(* small automata used below; messages are ints *)
let receive_any ~from_ ~next = A.on_receive ~from_:(A.One from_) ~accept:(fun () _ -> true) ~next ()

let construction_tests =
  [
    Alcotest.test_case "duplicate state raises" `Quick (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Automaton A: duplicate state s") (fun () ->
            ignore
              (A.make ~name:"A" ~initial:"s"
                 ~nodes:[ ("s", A.final ()); ("s", A.final ()) ] ())));
    Alcotest.test_case "unknown initial raises" `Quick (fun () ->
        Alcotest.check_raises "init"
          (Invalid_argument "Automaton A: unknown initial state nope") (fun () ->
            ignore (A.make ~name:"A" ~initial:"nope" ~nodes:[ ("s", A.final ()) ] ())));
    Alcotest.test_case "states and node lookup" `Quick (fun () ->
        let a =
          A.make ~name:"A" ~initial:"s"
            ~nodes:[ ("s", A.input [ receive_any ~from_:0 ~next:"t" ]); ("t", A.final ()) ] ()
        in
        check Alcotest.(list string) "states" [ "s"; "t" ] (A.states a);
        check Alcotest.bool "node" true (A.node a "t" <> None);
        check Alcotest.bool "missing" true (A.node a "zz" = None));
  ]

let errs_of a = match A.check a with Ok () -> [] | Error es -> es

let check_tests =
  [
    Alcotest.test_case "well-formed automaton passes" `Quick (fun () ->
        let a =
          A.make ~name:"ok" ~initial:"s"
            ~nodes:
              [
                ("s", A.input [ receive_any ~from_:0 ~next:"t" ]);
                ("t", A.final ());
              ] ()
        in
        check Alcotest.bool "ok" true (A.check a = Ok ()));
    Alcotest.test_case "unknown target detected" `Quick (fun () ->
        let a =
          A.make ~name:"bad" ~initial:"s"
            ~nodes:[ ("s", A.input [ receive_any ~from_:0 ~next:"gone" ]) ] ()
        in
        check Alcotest.bool "err" true
          (List.exists
             (function A.Unknown_target _ -> true | _ -> false)
             (errs_of a)));
    Alcotest.test_case "empty input state detected" `Quick (fun () ->
        let a = A.make ~name:"bad" ~initial:"s" ~nodes:[ ("s", A.input []) ] () in
        check Alcotest.bool "err" true
          (List.exists (function A.Empty_input "s" -> true | _ -> false) (errs_of a)));
    Alcotest.test_case "deadline on unassigned clock detected" `Quick (fun () ->
        let a =
          A.make ~name:"bad" ~initial:"s"
            ~nodes:
              [
                ("s", A.input [ A.on_deadline ~base:"u" ~offset:5 ~next:"t" () ]);
                ("t", A.final ());
              ] ()
        in
        check Alcotest.bool "err" true
          (List.exists
             (function A.Unassigned_clock { var = "u"; _ } -> true | _ -> false)
             (errs_of a)));
    Alcotest.test_case "clock assigned on every path passes" `Quick (fun () ->
        let a =
          A.make ~name:"ok" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 0) ~accept:(fun () _ -> true)
                        ~save_now:[ "u" ] ~next:"w" ();
                    ] );
                ( "w",
                  A.input
                    [
                      A.on_deadline ~base:"u" ~offset:5 ~next:"t" ();
                      receive_any ~from_:0 ~next:"t";
                    ] );
                ("t", A.final ());
              ] ()
        in
        check Alcotest.bool "ok" true (A.check a = Ok ()));
    Alcotest.test_case "clock assigned on only one path fails" `Quick (fun () ->
        let a =
          A.make ~name:"bad" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 0) ~accept:(fun () _ -> true)
                        ~save_now:[ "u" ] ~next:"w" ();
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () _ -> true) ~next:"w" ();
                    ] );
                ("w", A.input [ A.on_deadline ~base:"u" ~offset:5 ~next:"t" () ]);
                ("t", A.final ());
              ] ()
        in
        check Alcotest.bool "err" true
          (List.exists
             (function A.Unassigned_clock _ -> true | _ -> false)
             (errs_of a)));
    Alcotest.test_case "unreachable state detected" `Quick (fun () ->
        let a =
          A.make ~name:"bad" ~initial:"s"
            ~nodes:[ ("s", A.final ()); ("island", A.final ()) ] ()
        in
        check Alcotest.bool "err" true
          (List.exists
             (function A.Unreachable_state "island" -> true | _ -> false)
             (errs_of a)));
    Alcotest.test_case "no reachable final detected" `Quick (fun () ->
        let a =
          A.make ~name:"bad" ~initial:"s"
            ~nodes:[ ("s", A.input [ receive_any ~from_:0 ~next:"s" ]) ] ()
        in
        check Alcotest.bool "err" true
          (List.exists (function A.No_final_reachable -> true | _ -> false) (errs_of a)));
    Alcotest.test_case "dot rendering mentions the states" `Quick (fun () ->
        let a =
          A.make ~name:"viz" ~initial:"s"
            ~nodes:
              [
                ("s", A.input [ receive_any ~from_:3 ~next:"t" ]);
                ("t", A.final ());
              ] ()
        in
        let dot = A.to_dot a in
        let mem sub =
          let n = String.length sub and m = String.length dot in
          let rec go i = i + n <= m && (String.sub dot i n = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "s" true (mem "\"s\"");
        check Alcotest.bool "r(3, msg)" true (mem "r(3, msg)"));
  ]

(* ------------------------- executor semantics ------------------------- *)

let mk_engine ?(seed = 1) () =
  let network =
    Sim.Network.create
      (Sim.Network.Synchronous { delta = 10 })
      (Sim.Rng.create ~seed:(seed + 1))
  in
  E.create ~tag_of:string_of_int ~network ~seed ()

(* process 0 runs [auto]; process 1 runs [driver] *)
let run_pair auto driver =
  let e = mk_engine () in
  let handlers, running = Executor.handlers auto () in
  ignore (E.add_process e handlers);
  ignore (E.add_process e driver);
  ignore (E.run e);
  (running, e)

let send_at_start msgs =
  {
    E.on_start = (fun ctx -> List.iter (fun m -> E.send ctx ~dst:0 m) msgs);
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

let executor_tests =
  [
    Alcotest.test_case "receive transition fires and records visit" `Quick
      (fun () ->
        (* the acts' log is the path: one line per branch taken and one
           for the final state *)
        let log = ref [] in
        let auto =
          A.make ~name:"recv" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () _ -> true)
                        ~act:(fun () _ _ m ->
                          log :=
                            ("s -> t on " ^ string_of_int (Option.get m))
                            :: !log)
                        ~next:"t" ();
                    ] );
                ("t", A.final ~act:(fun () _ _ -> log := "final t" :: !log) ());
              ] ()
        in
        let running, _ = run_pair auto (send_at_start [ 5 ]) in
        check Alcotest.bool "done" true (Executor.terminated running);
        check Alcotest.string "state" "t" (Executor.current_state running);
        check Alcotest.(list string) "path" [ "s -> t on 5"; "final t" ]
          (List.rev !log));
    Alcotest.test_case "early message waits in the pool" `Quick (fun () ->
        (* the automaton consumes msg A then msg B, but B is sent first *)
        let auto =
          A.make ~name:"pool" ~initial:"wait_a"
            ~nodes:
              [
                ( "wait_a",
                  A.input [ A.on_receive ~from_:(A.One 1) ~accept:(fun () m -> m = 1) ~next:"wait_b" () ] );
                ( "wait_b",
                  A.input [ A.on_receive ~from_:(A.One 1) ~accept:(fun () m -> m = 2) ~next:"t" () ] );
                ("t", A.final ());
              ] ()
        in
        (* with FIFO channels msg 2 arrives first *)
        let running, _ = run_pair auto (send_at_start [ 2; 1 ]) in
        check Alcotest.bool "done" true (Executor.terminated running);
        check Alcotest.int "pool drained" 0 (Executor.pending_count running));
    Alcotest.test_case "unmatched messages stay pending" `Quick (fun () ->
        let auto =
          A.make ~name:"picky" ~initial:"s"
            ~nodes:
              [
                ("s", A.input [ A.on_receive ~from_:(A.One 1) ~accept:(fun () m -> m = 7) ~next:"t" () ]);
                ("t", A.final ());
              ] ()
        in
        let running, _ = run_pair auto (send_at_start [ 1; 2; 3 ]) in
        check Alcotest.bool "stuck" false (Executor.terminated running);
        check Alcotest.int "pending" 3 (Executor.pending_count running));
    Alcotest.test_case "textual branch order is the priority" `Quick (fun () ->
        let hit = ref "" in
        let auto =
          A.make ~name:"prio" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () v -> v > 0)
                        ~act:(fun () _ _ _ -> hit := "first")
                        ~next:"t" ();
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () v -> v > 0)
                        ~act:(fun () _ _ _ -> hit := "second")
                        ~next:"t" ();
                    ] );
                ("t", A.final ());
              ] ()
        in
        let _ = run_pair auto (send_at_start [ 9 ]) in
        check Alcotest.string "first wins" "first" !hit);
    Alcotest.test_case "deadline fires when no message comes" `Quick (fun () ->
        let auto =
          A.make ~name:"to" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () _ -> true)
                        ~save_now:[ "u" ] ~next:"w" ();
                    ] );
                ( "w",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () m -> m = 99) ~next:"got" ();
                      A.on_deadline ~base:"u" ~offset:50 ~next:"expired" ();
                    ] );
                ("got", A.final ());
                ("expired", A.final ());
              ] ()
        in
        let running, e = run_pair auto (send_at_start [ 1 ]) in
        check Alcotest.bool "done" true (Executor.terminated running);
        check Alcotest.string "expired" "expired" (Executor.current_state running);
        (* the timer of branch 1 of state w is labelled "w#1" when set and
           when fired; Conformance.split_label depends on that shape *)
        let labels =
          List.filter_map
            (function
              | Sim.Trace.Timer_set { label; _ } -> Some ("set " ^ label)
              | Sim.Trace.Timer_fired { label; _ } -> Some ("fired " ^ label)
              | _ -> None)
            (Sim.Trace.to_list (E.trace e))
        in
        check Alcotest.(list string) "labels" [ "set w#1"; "fired w#1" ] labels);
    Alcotest.test_case "message beats a later deadline" `Quick (fun () ->
        let driver =
          {
            E.on_start = (fun ctx -> E.send ctx ~dst:0 1);
            on_receive = (fun _ ~src:_ _ -> ());
            on_timer = (fun _ ~label:_ -> ());
          }
        in
        let auto =
          A.make ~name:"race" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () m -> m = 1) ~save_now:[ "u" ]
                        ~next:"w" ();
                    ] );
                ( "w",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () m -> m = 2) ~next:"got" ();
                      A.on_deadline ~base:"u" ~offset:10_000 ~next:"expired" ();
                    ] );
                ("got", A.final ());
                ("expired", A.final ());
              ] ()
        in
        let e = mk_engine () in
        let handlers, running = Executor.handlers auto () in
        ignore (E.add_process e handlers);
        ignore
          (E.add_process e
             {
               driver with
               E.on_receive = (fun _ ~src:_ _ -> ());
               on_start =
                 (fun ctx ->
                   E.send ctx ~dst:0 1;
                   E.send ctx ~dst:0 2);
             });
        ignore (E.run e);
        check Alcotest.string "got" "got" (Executor.current_state running));
    Alcotest.test_case "output chains send then land on input" `Quick (fun () ->
        let got = ref [] in
        let auto =
          A.make ~name:"out" ~initial:"a"
            ~nodes:
              [
                ("a", A.output ~to_:1 ~message:(fun () _ _ -> 10) ~next:"b" ());
                ("b", A.output ~to_:1 ~message:(fun () _ _ -> 20) ~next:"t" ());
                ("t", A.final ());
              ] ()
        in
        let e = mk_engine () in
        let handlers, running = Executor.handlers auto () in
        ignore (E.add_process e handlers);
        ignore
          (E.add_process e
             {
               E.on_start = (fun _ -> ());
               on_receive = (fun _ ~src:_ m -> got := m :: !got);
               on_timer = (fun _ ~label:_ -> ());
             });
        ignore (E.run e);
        check Alcotest.(list int) "both" [ 10; 20 ] (List.rev !got);
        check Alcotest.bool "done" true (Executor.terminated running));
    Alcotest.test_case "save_msg makes the payload forwardable" `Quick (fun () ->
        let forwarded = ref 0 in
        let auto =
          A.make ~name:"fwd" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 1) ~accept:(fun () _ -> true)
                        ~save_msg:"m" ~next:"send" ();
                    ] );
                ( "send",
                  A.output ~to_:1 ~message:(fun () _ store -> Store.data store "m")
                    ~next:"t" () );
                ("t", A.final ());
              ] ()
        in
        let e = mk_engine () in
        let handlers, _ = Executor.handlers auto () in
        ignore (E.add_process e handlers);
        ignore
          (E.add_process e
             {
               E.on_start = (fun ctx -> E.send ctx ~dst:0 77);
               on_receive = (fun _ ~src:_ m -> forwarded := m);
               on_timer = (fun _ ~label:_ -> ());
             });
        ignore (E.run e);
        check Alcotest.int "echoed" 77 !forwarded);
    Alcotest.test_case "init_clocks seeds the store at start" `Quick (fun () ->
        (* the birth clock an automaton declares is set when it starts,
           so a deadline may read it before any transition assigns it *)
        let auto =
          A.make ~name:"init" ~born:[ "birth" ] ~initial:"s"
            ~nodes:
              [
                ("s", A.input [ A.on_deadline ~base:"birth" ~offset:5 ~next:"t" () ]);
                ("t", A.final ());
              ] ()
        in
        check Alcotest.bool "checks" true (A.check auto = Ok ());
        let e = mk_engine () in
        let handlers, running = Executor.handlers auto () in
        ignore (E.add_process e handlers);
        ignore (E.run e);
        check Alcotest.bool "done" true (Executor.terminated running);
        check Alcotest.int "born at 0" 0
          (Store.clock (Executor.store running) "birth"));
    Alcotest.test_case "a receive hears one pid, a set or anyone" `Quick
      (fun () ->
        let pool = Pool.create () in
        Pool.push pool 1 10;
        Pool.push pool 2 20;
        let take from_ =
          if Pool.find pool ~from_ ~accept:(fun () _ -> true) () then
            Some (Pool.take_hit pool)
          else None
        in
        check Alcotest.(option int) "one" None (take (A.One 3));
        check Alcotest.(option int) "among" (Some 20) (take (A.Among [| 2; 3 |]));
        check Alcotest.(option int) "anyone" (Some 10) (take A.Any));
    Alcotest.test_case "a named timer keeps its place across states" `Quick
      (fun () ->
        (* [t] is armed once, at birth, and still fires after the
           automaton moved to a state that shares it; the replay agrees *)
        let auto =
          A.make ~name:"named" ~born:[ "b" ] ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_deadline ~timer:"t" ~base:"b" ~offset:50 ~next:"fired" ();
                      receive_any ~from_:1 ~next:"s2";
                    ] );
                ( "s2",
                  A.input
                    [ A.on_deadline ~timer:"t" ~base:"b" ~offset:50 ~next:"fired" () ] );
                ("fired", A.final ());
              ]
            ()
        in
        let running, e = run_pair auto (send_at_start [ 1 ]) in
        check Alcotest.bool "fired" true (Executor.terminated running);
        let sets =
          List.filter_map
            (function
              | Sim.Trace.Timer_set { owner = 0; label; local_deadline; _ } ->
                  Some (label, local_deadline)
              | _ -> None)
            (Sim.Trace.to_list (E.trace e))
        in
        check Alcotest.(list (pair string int)) "armed once" [ ("t", 50) ] sets;
        check Alcotest.bool "conforms" true
          (Conformance.check auto () ~pid:0 ~tag_of:string_of_int (E.trace e) = Ok ()));
    Alcotest.test_case "an output to an engine pid leaves the block" `Quick
      (fun () ->
        (* the automaton runs at pid 3 with base 3: its logical pid 0 is
           itself, engine pid 0 is the recorder *)
        let got = ref [] in
        let auto =
          A.make ~name:"abs" ~initial:"out"
            ~nodes:
              [
                ( "out",
                  A.output ~absolute:true ~to_:0 ~message:(fun () _ _ -> 9)
                    ~next:"t" () );
                ("t", A.final ());
              ]
            ()
        in
        let e = mk_engine () in
        ignore
          (E.add_process e
             {
               E.on_start = (fun _ -> ());
               on_receive = (fun _ ~src m -> got := (src, m) :: !got);
               on_timer = (fun _ ~label:_ -> ());
             });
        ignore (E.add_process e ~pid:3 ~base:3 (Executor.instantiate [| auto |] () 0));
        ignore (E.run e);
        check Alcotest.(list (pair int int)) "received" [ (3, 9) ] !got);
    Alcotest.test_case "compilation keeps malformed automata reportable"
      `Quick (fun () ->
        (* an unknown target compiles to a state the executor refuses to
           enter; check still names it, and the read API never lists it *)
        let gone =
          A.make ~name:"bad" ~initial:"s"
            ~nodes:
              [
                ("s", A.input [ receive_any ~from_:1 ~next:"gone" ]);
                ("t", A.final ());
              ] ()
        in
        check Alcotest.bool "unknown target" true
          (match errs_of gone with
          | [ A.Unknown_target { from_ = "s"; target = "gone" } ] -> true
          | _ -> false);
        check Alcotest.(list string) "states" [ "s"; "t" ] (A.states gone);
        check Alcotest.bool "no node" true (A.node gone "gone" = None);
        Alcotest.check_raises "executor"
          (Invalid_argument
             "Anta.Executor: automaton bad reached unknown state gone")
          (fun () -> ignore (run_pair gone (send_at_start [ 1 ])));
        let unassigned =
          A.make ~name:"bad" ~initial:"s"
            ~nodes:
              [
                ( "s",
                  A.input
                    [
                      A.on_receive ~from_:(A.One 0) ~accept:(fun () _ -> true)
                        ~save_now:[ "u" ] ~next:"w" ();
                      A.on_deadline ~base:"v" ~offset:1 ~next:"w" ();
                    ] );
                ("w", A.input [ A.on_deadline ~base:"u" ~offset:5 ~next:"t" () ]);
                ("t", A.final ());
              ] ()
        in
        check Alcotest.bool "unassigned clocks" true
          (match errs_of unassigned with
          | [
           A.Unassigned_clock { at = "s"; var = "v" };
           A.Unassigned_clock { at = "w"; var = "u" };
          ] ->
              true
          | _ -> false));
  ]

(* ------------------ differential: compiled vs reference ------------------ *)

(* The executor as it ran before automata were compiled: node lookup by
   state name, branch lists, a store addressed by name, and a list pool.
   Kept here only as the oracle for the compiled executor. *)
module Reference = struct
  type ('msg, 'obs) running = {
    auto : (unit, 'msg, 'obs) A.t;
    sstore : 'msg Store.t;
    mutable state : A.state;
    mutable node : (unit, 'msg, 'obs) A.node option;
    mutable finished : bool;
    mutable pending : (int * 'msg) list;
    mutable labels : string array;
  }

  let branches_of r =
    match r.node with Some (A.Input branches) -> branches | _ -> []

  let disarm_deadlines ctx r =
    List.iteri
      (fun idx (b : (unit, 'msg, 'obs) A.branch) ->
        match b.guard with
        | A.Deadline _ | A.At _ -> E.cancel_timer ctx ~label:r.labels.(idx)
        | A.Receive _ -> ())
      (branches_of r)

  let take_branch ctx r (b : (unit, 'msg, 'obs) A.branch) msg =
    disarm_deadlines ctx r;
    let now = E.local_now ctx in
    List.iter (fun v -> Store.set_clock r.sstore v now) b.save_now;
    (match (b.save_msg, msg) with
    | Some var, Some m -> Store.set_data r.sstore var m
    | Some var, None -> invalid_arg ("save_msg on a deadline branch: " ^ var)
    | None, _ -> ());
    b.b_act () ctx r.sstore msg;
    b.next

  let try_fire_receive r =
    let rec find_in_pool from_ accept seen = function
      | [] -> None
      | ((src, m) as item) :: rest ->
          if Anta.Pool.admits from_ src && accept () m then
            Some (m, List.rev_append seen rest)
          else find_in_pool from_ accept (item :: seen) rest
    in
    let rec scan = function
      | [] -> None
      | (b : (unit, 'msg, 'obs) A.branch) :: rest -> (
          match b.guard with
          | A.Receive { from_; accept; _ } -> (
              match find_in_pool from_ accept [] r.pending with
              | Some (m, pool) -> Some (b, m, pool)
              | None -> scan rest)
          | A.Deadline _ | A.At _ -> scan rest)
    in
    scan (branches_of r)

  let rec enter ctx r st =
    r.state <- st;
    r.node <- A.node r.auto st;
    match r.node with
    | None -> invalid_arg ("unknown state " ^ st)
    | Some (A.Output { to_; message; o_act; next; _ }) ->
        o_act () ctx r.sstore;
        E.send ctx ~dst:to_ (message () ctx r.sstore);
        enter ctx r next
    | Some (A.Final { f_act }) ->
        r.finished <- true;
        f_act () ctx r.sstore;
        E.halt ctx
    | Some (A.Input branches) -> (
        r.labels <- Array.make (List.length branches) "";
        List.iteri
          (fun idx (b : (unit, 'msg, 'obs) A.branch) ->
            let arm deadline =
              let label = st ^ "#" ^ string_of_int idx in
              r.labels.(idx) <- label;
              E.set_timer ctx ~deadline ~label
            in
            match b.guard with
            | A.Deadline { base; offset; timer = None } ->
                arm (Sim.Sim_time.add (Store.clock r.sstore base) offset)
            | A.At { local } -> arm local
            | A.Deadline { timer = Some _; _ } | A.Receive _ -> ())
          branches;
        match try_fire_receive r with
        | Some (b, m, pool) ->
            r.pending <- pool;
            enter ctx r (take_branch ctx r b (Some m))
        | None -> ())

  let handlers auto =
    let initial = A.state_name auto (A.initial_index auto) in
    let r =
      {
        auto;
        sstore = empty_store ();
        state = initial;
        node = A.node auto initial;
        finished = false;
        pending = [];
        labels = [||];
      }
    in
    let on_start ctx =
      let now = E.local_now ctx in
      List.iter (fun v -> Store.set_clock r.sstore v now) (A.born auto);
      enter ctx r initial
    in
    let on_receive ctx ~src msg =
      if not r.finished then begin
        r.pending <- r.pending @ [ (src, msg) ];
        match r.node with
        | Some (A.Input _) -> (
            match try_fire_receive r with
            | Some (b, m, pool) ->
                r.pending <- pool;
                enter ctx r (take_branch ctx r b (Some m))
            | None -> ())
        | _ -> ()
      end
    in
    let on_timer ctx ~label =
      if not r.finished then
        let rec find idx = function
          | [] -> ()
          | (b : (unit, 'msg, 'obs) A.branch) :: rest -> (
              match b.guard with
              | (A.Deadline _ | A.At _) when String.equal label r.labels.(idx)
                ->
                  enter ctx r (take_branch ctx r b None)
              | A.Deadline _ | A.At _ | A.Receive _ -> find (idx + 1) rest)
        in
        find 0 (branches_of r)
    in
    ({ E.on_start; on_receive; on_timer }, r)
end

(* A random automaton, as data. Messages are ints and every output goes to
   the driver (pid 1). Outputs only point forward, so no output cycle can
   spin without an event; deadline bases are the birth clocks x and y. *)
type gbranch = {
  g_recv : (int * int) option;  (** accept [m mod k = r] *)
  g_deadline : (string * int) option;
      (** base, offset; base ["@"] is the absolute deadline [now >= offset] *)
  g_now : string list;
  g_msg : string option;
  g_act : bool;  (** the act also writes clock "act" by name *)
  g_next : int;
}

type gnode = G_out of int | G_in of gbranch list | G_final

let gen_spec =
  let open QCheck.Gen in
  int_range 2 8 >>= fun n ->
  let gen_branch =
    int_bound (n - 1) >>= fun g_next ->
    oneofl [ []; [ "x" ]; [ "y" ]; [ "z" ]; [ "x"; "z" ] ] >>= fun g_now ->
    bool >>= fun g_act ->
    bool >>= fun recv ->
    if recv then
      int_range 1 3 >>= fun k ->
      int_bound (k - 1) >>= fun r ->
      oneofl [ None; Some "m"; Some "n" ] >>= fun g_msg ->
      return
        { g_recv = Some (k, r); g_deadline = None; g_now; g_msg; g_act; g_next }
    else
      oneofl [ "x"; "y"; "@" ] >>= fun base ->
      int_bound 150 >>= fun off ->
      return
        {
          g_recv = None;
          g_deadline = Some (base, off);
          g_now;
          g_msg = None;
          g_act;
          g_next;
        }
  in
  let gen_node i =
    let input = (4, list_size (int_range 1 3) gen_branch >|= fun bs -> G_in bs) in
    let final = (1, return G_final) in
    if i < n - 1 then
      frequency
        [ (2, int_range (i + 1) (n - 1) >|= fun j -> G_out j); input; final ]
    else frequency [ input; final ]
  in
  let rec nodes i = if i = n then return [] else
    gen_node i >>= fun g -> nodes (i + 1) >|= fun rest -> g :: rest
  in
  nodes 0 >>= fun spec ->
  list_size (int_bound 12) (pair (int_bound 300) (int_bound 20))
  >|= fun sched -> (spec, sched)

let print_spec (spec, sched) =
  let branch b =
    Printf.sprintf "%s%s now=[%s]%s%s -> s%d"
      (match b.g_recv with
      | Some (k, r) -> Printf.sprintf "r(m mod %d = %d)" k r
      | None -> "")
      (match b.g_deadline with
      | Some ("@", off) -> Printf.sprintf "now >= %d" off
      | Some (base, off) -> Printf.sprintf "now >= %s + %d" base off
      | None -> "")
      (String.concat ";" b.g_now)
      (match b.g_msg with Some v -> " save " ^ v | None -> "")
      (if b.g_act then " act" else "")
      b.g_next
  in
  String.concat "\n"
    (List.mapi
       (fun i g ->
         Printf.sprintf "s%d: %s" i
           (match g with
           | G_out j -> Printf.sprintf "output -> s%d" j
           | G_in bs -> "input " ^ String.concat " | " (List.map branch bs)
           | G_final -> "final"))
       spec)
  ^ "\nschedule: "
  ^ String.concat " " (List.map (fun (t, m) -> Printf.sprintf "%d@%d" m t) sched)

let build_auto spec log =
  let name i = "s" ^ string_of_int i in
  let note s = log := s :: !log in
  let message i () _ store =
    (100 * i)
    + (if List.mem "m" (Store.data_vars store) then Store.data store "m" else 0)
    + if List.mem "z" (Store.clock_vars store) then Store.clock store "z" else 0
  in
  let branch i bi b =
    let act () ctx store m =
      note
        (Printf.sprintf "%s#%d %s" (name i) bi
           (match m with Some v -> string_of_int v | None -> "-"));
      if b.g_act then Store.set_clock store "act" (E.local_now ctx)
    in
    match (b.g_recv, b.g_deadline) with
    | Some (k, r), _ ->
        A.on_receive ~from_:(A.One 1) ~accept:(fun () m -> m mod k = r) ?save_msg:b.g_msg
          ~save_now:b.g_now ~act ~next:(name b.g_next) ()
    | None, Some ("@", at) ->
        { (A.on_local_time ~at ~act ~next:(name b.g_next)) with
          A.save_now = b.g_now;
        }
    | None, Some (base, offset) ->
        A.on_deadline ~base ~offset ~save_now:b.g_now ~act
          ~next:(name b.g_next) ()
    | None, None -> assert false
  in
  A.make ~name:"random" ~born:[ "x"; "y" ] ~initial:(name 0)
    ~nodes:
      (List.mapi
         (fun i g ->
           ( name i,
             match g with
             | G_out j ->
                 A.output ~to_:1
                   ~act:(fun () _ _ -> note ("out " ^ name i))
                   ~message:(message i) ~next:(name j) ()
             | G_in bs -> A.input (List.mapi (branch i) bs)
             | G_final -> A.final ~act:(fun () _ _ -> note ("final " ^ name i)) ()
           ))
         spec) ()

(* Everything an executor makes observable: the engine trace (sends, timer
   sets and fires, halts, in order), the stale-fire count (a missed or
   extra cancel changes it or adds a live fire), the acts' log (one line
   per branch taken, output and final: the path), the current state, the
   pending count and the final store. *)
let observe_run spec sched run =
  let log = ref [] in
  let auto = build_auto spec log in
  let metrics = Obsv.Metrics.create () in
  let e =
    E.create ~tag_of:string_of_int ~metrics
      ~network:
        (Sim.Network.create
           (Sim.Network.Synchronous { delta = 10 })
           (Sim.Rng.create ~seed:3))
      ~seed:1 ()
  in
  let handlers, inspect = run auto in
  ignore (E.add_process e handlers);
  ignore
    (E.add_process e
       {
         E.on_start =
           (fun ctx ->
             List.iteri
               (fun i (t, _) ->
                 E.set_timer ctx ~deadline:t ~label:(string_of_int i))
               sched);
         on_receive = (fun _ ~src:_ _ -> ());
         on_timer =
           (fun ctx ~label ->
             E.send ctx ~dst:0 (snd (List.nth sched (int_of_string label))));
       });
  let status = E.run ~max_events:2_000 e in
  let entry = function
    | Sim.Trace.Sent { t; src; dst; msg; _ } ->
        Printf.sprintf "%d sent %d->%d %d" t src dst msg
    | Sim.Trace.Delivered { t; src; dst; msg; _ } ->
        Printf.sprintf "%d delivered %d->%d %d" t src dst msg
    | Sim.Trace.Timer_set { t; owner; label; local_deadline; _ } ->
        Printf.sprintf "%d set %d %s @%d" t owner label local_deadline
    | Sim.Trace.Timer_fired { t; owner; label; _ } ->
        Printf.sprintf "%d fired %d %s" t owner label
    | Sim.Trace.Halted { t; pid } -> Printf.sprintf "%d halted %d" t pid
    | _ -> "other"
  in
  let state, finished, pending, store = inspect () in
  String.concat "\n"
    ([
       Printf.sprintf "status %s"
         (match status with
         | E.Quiescent -> "quiescent"
         | E.Event_limit -> "event-limit"
         | E.Horizon_reached -> "horizon"
         | E.Violation_stop -> "violation");
       Printf.sprintf "state %s finished %b pending %d" state finished pending;
       Printf.sprintf "stale %d"
         (Metric_value.counter metrics "xchain_timers_stale_total");
       "clocks "
       ^ String.concat " "
           (List.map
              (fun v -> Printf.sprintf "%s=%d" v (Store.clock store v))
              (Store.clock_vars store));
       "datas "
       ^ String.concat " "
           (List.map
              (fun v -> Printf.sprintf "%s=%d" v (Store.data store v))
              (Store.data_vars store));
     ]
    @ List.rev !log
    @ List.map entry (Sim.Trace.to_list (E.trace e)))

let compiled_run auto =
  let handlers, r = Executor.handlers auto () in
  ( handlers,
    fun () ->
      ( Executor.current_state r,
        Executor.terminated r,
        Executor.pending_count r,
        Executor.store r ) )

let reference_run auto =
  let handlers, (r : (int, unit) Reference.running) =
    Reference.handlers auto
  in
  ( handlers,
    fun () ->
      ( r.state,
        r.finished,
        List.length r.pending,
        r.sstore ) )

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"compiled executor matches the reference interpreter"
         (QCheck.make ~print:print_spec gen_spec)
         (fun (spec, sched) ->
           let got = observe_run spec sched compiled_run in
           let want = observe_run spec sched reference_run in
           if got <> want then
             QCheck.Test.fail_reportf "compiled:\n%s\nreference:\n%s" got want
           else true));
  ]

(* ---------------------- trace conformance ----------------------------- *)

let conformance_tests =
  let open Protocols in
  let run ?(faults = []) ?(seed = 1) () =
    let cfg = { (Runner.default_config ~hops:3 ~seed) with faults } in
    Runner.run cfg Runner.Sync_timebound
  in
  (* replay pid's automaton, for the run's own env, over the run's trace *)
  let conformance o pid =
    Conformance.check
      (Sync_protocol.template o.Runner.params).(pid)
      o.Runner.env ~pid ~tag_of:Msg.tag o.Runner.trace
  in
  (* Each strategy at a role it fits in a 3-hop chain (Alice 0, Chloe1 1,
     Chloe2 2, Bob 3, e0 4, e1 5, e2 6), with the state in which the replay
     of the honest automaton first deviates: the first step whose send,
     receive or timer the edit changed. *)
  let sync = Runner.Sync_timebound and weak = Runner.Weak Weak_protocol.default_config in
  let deviants =
    Byzantine.
      [
        (Crash_at_start, sync, 0, "send_money");
        (Mute, sync, 2, "send_money");
        (Thief_escrow, sync, 4, "send_p");
        (Premature_refund_escrow, sync, 5, "await_chi");
        (No_resolve_escrow, sync, 5, "await_chi");
        (Eager_chi_bob, sync, 3, "await_p");
        (Withhold_chi_bob, sync, 3, "send_chi");
        (Forge_chi_connector, sync, 1, "await_g");
        (Forge_chi_connector, sync, 3, "await_p");
        (Double_money_customer, sync, 0, "await_g");
        (Thief_escrow, weak, 5, "report0");
        (Never_deposit, weak, 1, "await_due");
        (False_funded_escrow, weak, 5, "await_money");
        (Impatient 100, weak, 0, "await_due");
        (Impatient 100, weak, 3, "await");
      ]
  in
  (* the deviant is flagged at [state]; every other payment pid conforms *)
  let flagged (t, protocol, pid, state) =
    let o =
      Runner.run { (Runner.default_config ~hops:3 ~seed:1) with faults = [ (pid, t) ] } protocol
    in
    let topo = o.Runner.env.Env.topo in
    let label =
      Printf.sprintf "%s at %s under %s" (Byzantine.name t)
        (Topology.role_name topo pid) (Runner.protocol_name protocol)
    in
    List.iter
      (fun q ->
        match (o.Runner.conformance q, q = pid) with
        | Some (Error d), true -> check Alcotest.string label state d.Conformance.state
        | Some (Ok ()), false -> ()
        | Some (Ok ()), true -> Alcotest.failf "%s conforms" label
        | Some (Error d), false ->
            Alcotest.failf "%s: pid %d wrongly flagged in state %s: %s" label q
              d.Conformance.state d.Conformance.reason
        | None, _ -> Alcotest.failf "%s: pid %d has no automaton" label q)
      (Topology.customers topo @ Topology.escrows topo)
  in
  [
    Alcotest.test_case "honest participants conform to Figure 2" `Quick
      (fun () ->
        let o = run () in
        let env = o.Runner.env in
        let topo = env.Env.topo in
        List.iter
          (fun pid ->
            match conformance o pid with
            | Ok () -> ()
            | Error d ->
                Alcotest.failf "pid %d deviates: in state %s: %s" pid
                  d.Conformance.state d.Conformance.reason)
          (Topology.customers topo @ Topology.escrows topo));
    Alcotest.test_case "honest runs conform across seeds" `Quick (fun () ->
        for seed = 1 to 10 do
          let o = run ~seed () in
          let env = o.Runner.env in
          List.iter
            (fun pid ->
              check Alcotest.bool "conforms" true (conformance o pid = Ok ()))
            (Topology.escrows env.Env.topo)
        done);
    Alcotest.test_case "a thief escrow is flagged" `Quick (fun () ->
        flagged (Byzantine.Thief_escrow, sync, 4, "send_p"));
    Alcotest.test_case "a premature refunder is flagged" `Quick (fun () ->
        flagged (Byzantine.Premature_refund_escrow, sync, 5, "await_chi"));
    Alcotest.test_case "an eager-chi Bob is flagged" `Quick (fun () ->
        flagged (Byzantine.Eager_chi_bob, sync, 3, "await_p"));
    Alcotest.test_case "naive-protocol failures are conformant: the flaw is \
                        the derivation, not the behaviour" `Quick (fun () ->
        (* find a drift-violating naive run and verify every participant
           still followed its automaton to the letter *)
        let open Protocols in
        let max_delay : Sim.Network.adversary =
         fun ~send_time:_ ~src:_ ~dst:_ ~tag:_ ~bounds ->
          Some bounds.Sim.Network.hi
        in
        let found = ref false in
        let seed = ref 1 in
        while (not !found) && !seed <= 40 do
          let cfg =
            {
              (Runner.default_config ~hops:5 ~seed:!seed) with
              drift_ppm = 80_000;
              delta = 200;
              margin = 1;
              adversary = Some max_delay;
            }
          in
          let o = Runner.run cfg Runner.Naive_universal in
          let v = Props.Payment_props.view o in
          if
            not
              (Props.Verdict.all_hold
                 (Props.Payment_props.check_def1 ~time_bounded:false v))
          then begin
            found := true;
            let topo = o.Runner.env.Env.topo in
            List.iter
              (fun pid ->
                match conformance o pid with
                | Ok () -> ()
                | Error d ->
                    Alcotest.failf "pid %d wrongly flagged: in state %s: %s" pid
                  d.Conformance.state d.Conformance.reason)
              (Topology.customers topo @ Topology.escrows topo)
          end;
          incr seed
        done;
        check Alcotest.bool "found a violating run" true !found);
    Alcotest.test_case "other participants still conform around a Byzantine \
                        one" `Quick (fun () ->
        let topo = Topology.create ~hops:3 in
        let bob = Topology.bob topo in
        let o = run ~faults:[ (bob, Byzantine.Withhold_chi_bob) ] () in
        List.iter
          (fun pid ->
            if pid <> bob then
              match conformance o pid with
              | Ok () -> ()
              | Error d ->
                  Alcotest.failf "pid %d wrongly flagged: in state %s: %s" pid
                  d.Conformance.state d.Conformance.reason)
          (Topology.customers topo @ Topology.escrows topo));
    Alcotest.test_case "every strategy is flagged at its first edited step"
      `Quick (fun () ->
        check Alcotest.(list string) "the table covers every strategy"
          (List.sort_uniq compare
             (List.map Byzantine.name (Byzantine.Impatient 100 :: Byzantine.spelled)))
          (List.sort_uniq compare
             (List.map (fun (t, _, _, _) -> Byzantine.name t) deviants));
        List.iter flagged deviants);
  ]

(* ----------------------- network-level checking ------------------------ *)

let network_tests =
  let mk_pair () =
    (* 0 sends to 1; 1 listens to 0 and answers *)
    let a0 =
      A.make ~name:"a0" ~initial:"send"
        ~nodes:
          [
            ("send", A.output ~to_:1 ~message:(fun () _ _ -> 1) ~next:"wait" ());
            ("wait", A.input [ receive_any ~from_:1 ~next:"done" ]);
            ("done", A.final ());
          ] ()
    in
    let a1 =
      A.make ~name:"a1" ~initial:"wait"
        ~nodes:
          [
            ("wait", A.input [ receive_any ~from_:0 ~next:"reply" ]);
            ("reply", A.output ~to_:0 ~message:(fun () _ _ -> 2) ~next:"done" ());
            ("done", A.final ());
          ] ()
    in
    (a0, a1)
  in
  [
    Alcotest.test_case "a well-wired pair passes" `Quick (fun () ->
        let a0, a1 = mk_pair () in
        check Alcotest.int "clean" 0
          (List.length (Network_check.check [ (0, a0); (1, a1) ])));
    Alcotest.test_case "dangling send detected" `Quick (fun () ->
        let a0, _ = mk_pair () in
        let issues = Network_check.check [ (0, a0) ] in
        check Alcotest.bool "dangling" true
          (List.exists
             (function
               | Network_check.Dangling_send { to_ = 1; _ } -> true
               | _ -> false)
             issues));
    Alcotest.test_case "deaf receiver detected" `Quick (fun () ->
        let a0, _ = mk_pair () in
        (* replace a1 with an automaton that never listens to 0 *)
        let deaf =
          A.make ~name:"deaf" ~initial:"wait"
            ~nodes:
              [
                ("wait", A.input [ receive_any ~from_:9 ~next:"done" ]);
                ("done", A.final ());
              ] ()
        in
        let issues = Network_check.check [ (0, a0); (1, deaf); (9, a0) ] in
        check Alcotest.bool "deaf" true
          (List.exists
             (function
               | Network_check.Deaf_receiver { from_ = 0; to_ = 1 } -> true
               | _ -> false)
             issues));
    Alcotest.test_case "unheard listener is a warning" `Quick (fun () ->
        (* a pure listener waits on 0, but 0 is absent *)
        let listener =
          A.make ~name:"listener" ~initial:"wait"
            ~nodes:
              [
                ("wait", A.input [ receive_any ~from_:0 ~next:"done" ]);
                ("done", A.final ());
              ] ()
        in
        let issues = Network_check.check [ (1, listener) ] in
        check Alcotest.bool "warned" true
          (List.exists
             (function
               | Network_check.Unheard_listener { from_ = 0; _ } -> true
               | _ -> false)
             issues);
        check Alcotest.bool "but no errors" true
          (List.for_all
             (function Network_check.Unheard_listener _ -> true | _ -> false)
             issues));
    Alcotest.test_case "the Figure 2 network is clean for every size" `Quick
      (fun () ->
        let open Protocols in
        List.iter
          (fun hops ->
            let topo = Topology.create ~hops in
            let tmpl =
              Sync_protocol.template (Params.derive (Params.default_input ~hops))
            in
            let network =
              List.map
                (fun pid -> (pid, tmpl.(pid)))
                (Topology.customers topo @ Topology.escrows topo)
            in
            let issues = Network_check.check network in
            check Alcotest.int
              (Printf.sprintf "hops %d" hops)
              0 (List.length issues))
          [ 1; 2; 3; 8 ]);
    Alcotest.test_case "engine pids, peers and anyone never dangle or go unheard"
      `Quick (fun () ->
        let a0 =
          A.make ~name:"a0" ~initial:"shared"
            ~nodes:
              [
                ( "shared",
                  A.output ~absolute:true ~to_:99 ~message:(fun () _ _ -> 1)
                    ~next:"peer" () );
                ("peer", A.output ~to_:5 ~message:(fun () _ _ -> 2) ~next:"wait" ());
                ( "wait",
                  A.input
                    [
                      A.on_receive ~from_:A.Any ~accept:(fun () _ -> true)
                        ~next:"done" ();
                      A.on_receive ~from_:(A.Among [| 5; 6 |])
                        ~accept:(fun () _ -> true) ~next:"done" ();
                    ] );
                ("done", A.final ());
              ]
            ()
        in
        check Alcotest.int "clean" 0
          (List.length (Network_check.check ~peers:[ 5 ] [ (0, a0) ]));
        let issues = Network_check.check [ (0, a0) ] in
        check Alcotest.bool "without the peer, its send dangles" true
          (List.exists
             (function Network_check.Dangling_send { to_ = 5; _ } -> true | _ -> false)
             issues);
        check
          Alcotest.(list int)
          "a silent set is unheard, member by member" [ 5; 6 ]
          (List.filter_map
             (function Network_check.Unheard_listener { from_; _ } -> Some from_ | _ -> None)
             issues));
  ]

let () =
  Alcotest.run "anta"
    [
      ("store", store_tests);
      ("construction", construction_tests);
      ("check", check_tests);
      ("executor", executor_tests @ differential_tests);
      ("conformance", conformance_tests);
      ("network", network_tests);
    ]
