open Protocols
module ST = Sim.Sim_time

type breach = { escrow : int; promise : string; detail : string }

let pp_breach ppf b =
  Fmt.pf ppf "escrow %d broke %s: %s" b.escrow b.promise b.detail

(* Local reading of a global trace timestamp on a participant's clock. *)
let local v pid g =
  Sim.Clock.local_of_global v.Payment_props.outcome.Runner.clocks.(pid) g

let entries v = Sim.Trace.to_list v.Payment_props.outcome.Runner.trace

(* First Sent entry from [src] to [dst] at or after global time [from_] that
   satisfies [pred]. *)
let first_send v ~src ~dst ~from_ pred =
  List.find_map
    (function
      | Sim.Trace.Sent { t; src = s; dst = d; msg; _ }
        when s = src && d = dst && ST.(t >= from_) && pred msg ->
          Some t
      | _ -> None)
    (entries v)

let check_g v ~escrow ~cust_up acc =
  (* the promise actually issued *)
  let promised_d =
    List.find_map
      (function
        | Sim.Trace.Sent { src; dst; msg = Msg.Promise_g sv; _ }
          when src = escrow && dst = cust_up ->
            Some sv.Xcrypto.Auth.payload.Msg.d
        | _ -> None)
      (entries v)
  in
  match promised_d with
  | None -> acc (* no promise, nothing to honour *)
  | Some d -> (
      (* the trigger: $ delivered from the customer *)
      let money_at =
        List.find_map
          (function
            | Sim.Trace.Delivered { t; src; dst; msg = Msg.Money _; _ }
              when src = cust_up && dst = escrow ->
                Some t
            | _ -> None)
          (entries v)
      in
      match money_at with
      | None -> acc
      | Some gw -> (
          let w = local v escrow gw in
          let reply =
            first_send v ~src:escrow ~dst:cust_up ~from_:gw (function
              | Msg.Money _ | Msg.Chi _ -> true
              | _ -> false)
          in
          match reply with
          | Some gs when ST.(local v escrow gs <= ST.add w d) -> acc
          | Some gs ->
              {
                escrow;
                promise = "G";
                detail =
                  Fmt.str "replied at local %a, promised by %a"
                    ST.pp (local v escrow gs) ST.pp (ST.add w d);
              }
              :: acc
          | None ->
              {
                escrow;
                promise = "G";
                detail =
                  Fmt.str "never replied to the $ received at local %a (d=%a)"
                    ST.pp w ST.pp d;
              }
              :: acc))

let check_p v ~escrow ~cust_down ~epsilon acc =
  let promised_a =
    List.find_map
      (function
        | Sim.Trace.Sent { t; src; dst; msg = Msg.Promise_p sv; _ }
          when src = escrow && dst = cust_down ->
            Some (t, sv.Xcrypto.Auth.payload.Msg.a)
        | _ -> None)
      (entries v)
  in
  match promised_a with
  | None -> acc
  | Some (g_issue, a) -> (
      let u = local v escrow g_issue in
      (* the trigger: a valid χ delivered inside the window *)
      let env = v.Payment_props.outcome.Runner.env in
      let chi_at =
        List.find_map
          (function
            | Sim.Trace.Delivered { t; src; dst; msg = Msg.Chi sv; _ }
              when src = cust_down && dst = escrow && Env.chi_ok env sv ->
                Some t
            | _ -> None)
          (entries v)
      in
      match chi_at with
      | None -> acc
      | Some gv ->
          let vt = local v escrow gv in
          if ST.(vt >= ST.add u a) then acc (* outside the window: no duty *)
          else
            let payout =
              first_send v ~src:escrow ~dst:cust_down ~from_:gv (function
                | Msg.Money _ -> true
                | _ -> false)
            in
            (match payout with
            | Some gs when ST.(local v escrow gs <= ST.add vt epsilon) -> acc
            | Some gs ->
                {
                  escrow;
                  promise = "P";
                  detail =
                    Fmt.str "paid at local %a, promised by %a"
                      ST.pp (local v escrow gs) ST.pp (ST.add vt epsilon);
                }
                :: acc
            | None ->
                {
                  escrow;
                  promise = "P";
                  detail =
                    Fmt.str
                      "accepted χ at local %a inside its window (a=%a) and \
                       never paid"
                      ST.pp vt ST.pp a;
                }
                :: acc))

let breaches v =
  let outcome = v.Payment_props.outcome in
  let topo = outcome.Runner.env.Env.topo in
  let epsilon = outcome.Runner.params.Params.epsilon in
  List.fold_left
    (fun acc epid ->
      let i = Option.get (Topology.escrow_index topo epid) in
      let cust_up = Topology.customer topo i in
      let cust_down = Topology.customer topo (i + 1) in
      acc
      |> check_g v ~escrow:epid ~cust_up
      |> check_p v ~escrow:epid ~cust_down ~epsilon)
    [] (Topology.escrows topo)
  |> List.rev
