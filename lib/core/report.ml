open Protocols
module PP = Props.Payment_props
module V = Props.Verdict

type participant = {
  pid : int;
  name : string;
  byzantine : string option;
  terminated : (int * string) option;
  net : int;
  conforms : (unit, Anta.Conformance.deviation) result option;
}

type t = {
  outcome : Runner.outcome;
  headline : string;
  participants : participant list;
  verdicts : V.report;
  breaches : Props.Promises.breach list;
  conserved : bool;
}

let build (outcome : Runner.outcome) =
  let v = PP.view outcome in
  let topo = outcome.Runner.env.Env.topo in
  let verdicts = PP.check v in
  let pids =
    Topology.customers topo @ Topology.escrows topo
    @ Array.to_list outcome.Runner.tm_pids
  in
  let participants =
    List.map
      (fun pid ->
        {
          pid;
          name = Api.participant_name outcome pid;
          byzantine = List.assoc_opt pid outcome.Runner.fault_names;
          terminated = v.PP.terminated pid;
          net = v.PP.net pid;
          conforms = outcome.Runner.conformance pid;
        })
      pids
  in
  let headline =
    if PP.bob_paid v then
      Fmt.str "payment SUCCEEDED under %s%a (%d messages)"
        (Runner.protocol_name outcome.Runner.protocol)
        Fmt.(option (fun ppf -> pf ppf " at t=%d"))
        (Api.bob_paid_at outcome v) outcome.Runner.message_count
    else
      Fmt.str "payment DID NOT COMPLETE under %s (%d messages, status %s)"
        (Runner.protocol_name outcome.Runner.protocol)
        outcome.Runner.message_count
        (Sim.Engine.status_name outcome.Runner.status)
  in
  {
    outcome;
    headline;
    participants;
    verdicts;
    breaches = Props.Promises.breaches v;
    conserved = PP.money_conserved v;
  }

let pp ppf t =
  Fmt.pf ppf "@[<v>%s@,@," t.headline;
  Fmt.pf ppf "participants:@,";
  List.iter
    (fun p ->
      Fmt.pf ppf "  %-8s" p.name;
      (match p.byzantine with
      | Some s -> Fmt.pf ppf " [byzantine: %s]" s
      | None -> ());
      (match p.terminated with
      | Some (time, tag) -> Fmt.pf ppf " %s at t=%d" tag time
      | None -> Fmt.pf ppf " never terminated");
      if p.net <> 0 then Fmt.pf ppf ", net %+d" p.net;
      (match p.conforms with
      | Some (Ok ()) -> Fmt.pf ppf ", conforms to its automaton"
      | Some (Error d) ->
          Fmt.pf ppf ", DEVIATES at %s: %s" d.Anta.Conformance.state
            d.Anta.Conformance.reason
      | None -> ());
      Fmt.pf ppf "@,")
    t.participants;
  Fmt.pf ppf "@,properties:@,%a@," V.pp_report t.verdicts;
  (match t.breaches with
  | [] -> Fmt.pf ppf "@,promises: all honoured@,"
  | bs ->
      Fmt.pf ppf "@,promise breaches:@,";
      List.iter (fun b -> Fmt.pf ppf "  %a@," Props.Promises.pp_breach b) bs);
  Fmt.pf ppf "conservation: %s@]"
    (if t.conserved then "every book audits" else "VIOLATED")
