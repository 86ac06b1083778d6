open Protocols
module PP = Props.Payment_props
module V = Props.Verdict

type protocol_choice =
  | Time_bounded
  | Naive
  | Htlc_chain
  | Weak_single of { patience : int }
  | Weak_committee of { patience : int; f : int }
  | Weak_chain of { patience : int; validators : int }
  | Atomic of { deadline : int }

type network_choice =
  | Synchronous
  | Partially_synchronous of { gst : int }
  | Asynchronous

type result = {
  success : bool;
  outcome : Runner.outcome;
  report : V.report;
  all_properties_hold : bool;
  terminations : (string * string) list;
  bob_paid_at : int option;
  messages : int;
}

let to_runner_protocol = function
  | Time_bounded -> Runner.Sync_timebound
  | Naive -> Runner.Naive_universal
  | Htlc_chain -> Runner.Htlc
  | Weak_single { patience } ->
      Runner.Weak { Weak_protocol.default_config with patience }
  | Weak_committee { patience; f } ->
      Runner.Weak
        {
          Weak_protocol.default_config with
          patience;
          tm = Weak_protocol.Committee { f };
        }
  | Weak_chain { patience; validators } ->
      Runner.Weak
        {
          Weak_protocol.default_config with
          patience;
          tm = Weak_protocol.Chain { validators };
        }
  | Atomic { deadline } -> Runner.Atomic { Atomic_protocol.deadline }

let to_runner_network = function
  | Synchronous -> Runner.Sync
  | Partially_synchronous { gst } -> Runner.Psync { gst }
  | Asynchronous -> Runner.Async { mean = 200; cap = 50_000 }

let participant_name (outcome : Runner.outcome) pid =
  let topo = outcome.Runner.env.Env.topo in
  match Topology.role_of topo pid with
  | Some Topology.Alice -> "Alice"
  | Some Topology.Bob -> "Bob"
  | Some (Topology.Connector i) -> Printf.sprintf "Chloe%d" i
  | Some (Topology.Escrow i) -> Printf.sprintf "e%d" i
  | Some (Topology.Aux i) -> Printf.sprintf "tm%d" i
  | None -> Printf.sprintf "pid%d" pid

let pay ?(hops = 2) ?(value = 1000) ?(commission = 10) ?(drift_ppm = 10_000)
    ?(network = Synchronous) ?(protocol = Time_bounded) ?(faults = [])
    ?(seed = 1) () =
  let cfg =
    {
      (Runner.default_config ~hops ~seed) with
      value;
      commission;
      drift_ppm;
      network = to_runner_network network;
      faults;
    }
  in
  let runner_protocol = to_runner_protocol protocol in
  let outcome = Runner.run cfg runner_protocol in
  let v = PP.view outcome in
  let report = PP.check ~time_bounded:(network = Synchronous) v in
  {
    success = PP.bob_paid v;
    outcome;
    report;
    all_properties_hold = V.all_hold report;
    terminations =
      List.map
        (fun (pid, tag, _) -> (participant_name outcome pid, tag))
        (Runner.terminated_pids outcome);
    bob_paid_at =
      Option.map fst (v.PP.terminated (Topology.bob outcome.Runner.env.Env.topo));
    messages = outcome.Runner.message_count;
  }

let pp_result ppf r =
  Fmt.pf ppf "@[<v>payment %s (%d messages%a)@,"
    (if r.success then "SUCCEEDED" else "did not complete")
    r.messages
    Fmt.(option (fun ppf t -> pf ppf ", Bob paid at t=%d" t))
    r.bob_paid_at;
  Fmt.pf ppf "terminations:@,";
  List.iter (fun (who, how) -> Fmt.pf ppf "  %-8s %s@," who how) r.terminations;
  Fmt.pf ppf "properties:@,%a@]" V.pp_report r.report
