open Protocols
module PP = Props.Payment_props
module V = Props.Verdict

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

let bob_paid_at (outcome : Runner.outcome) (v : PP.run_view) =
  if not (PP.bob_paid v) then None
  else Option.map fst (v.PP.terminated (Topology.bob outcome.Runner.env.Env.topo))

let pay ?(hops = 2) ?(value = 1000) ?(commission = 10) ?(drift_ppm = 10_000)
    ?(network = Synchronous) ?(protocol = Runner.Sync_timebound) ?(faults = [])
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
  let outcome = Runner.run cfg protocol in
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
    bob_paid_at = bob_paid_at outcome v;
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
