open Sim
module A = Anta.Automaton
module E = Engine

type t =
  | Crash_at_start
  | Mute
  | Thief_escrow
  | Premature_refund_escrow
  | No_resolve_escrow
  | Eager_chi_bob
  | Withhold_chi_bob
  | Forge_chi_connector
  | Double_money_customer
  | Impatient of Sim_time.t
  | Never_deposit
  | False_funded_escrow

let name = function
  | Crash_at_start -> "crash-at-start"
  | Mute -> "mute"
  | Thief_escrow -> "thief-escrow"
  | Premature_refund_escrow -> "premature-refund"
  | No_resolve_escrow -> "no-resolve"
  | Eager_chi_bob -> "eager-chi"
  | Withhold_chi_bob -> "withhold-chi"
  | Forge_chi_connector -> "forge-chi"
  | Double_money_customer -> "double-money"
  | Impatient p -> Printf.sprintf "impatient-%s" (Sim_time.to_string p)
  | Never_deposit -> "never-deposit"
  | False_funded_escrow -> "false-funded"

(* no automaton to edit, so they fit any process, TM replicas included *)
let silent = function Crash_at_start | Mute -> true | _ -> false

(* ------------------- edits of an honest automaton ---------------------- *)

type 'i auto = ('i, Msg.t, Obs.t) A.t

let steal (env : Env.t) ctx i =
  let self = Topology.escrow env.Env.topo i in
  let deposit = env.Env.deposits.(i) and amount = Env.amount_at env i in
  if deposit >= 0 then
    match Ledger.Book.release env.Env.books.(i) deposit ~to_:self with
    | Ok () -> E.observe ctx (Obs.Released { escrow = self; deposit; to_ = self; amount })
    | Error e ->
        E.observe ctx
          (Obs.Rejected { pid = self; what = Fmt.str "steal: %a" Ledger.Book.pp_error e })

let deadline_named timer (b : ('i, Msg.t, Obs.t) A.branch) =
  match b.A.guard with
  | A.Deadline { timer = Some t; _ } -> String.equal t timer
  | A.Deadline { timer = None; _ } | A.Receive _ | A.At _ -> false

(* [edit topo ~pid t auto]: the deviant [t] makes of pid's honest
   automaton, built for a run's env; [None] where the edit does not find
   its states in [auto] *)
let edit topo ~pid t (auto : 'i auto) : (Env.t -> 'i auto) option =
  match t with
  | Crash_at_start | Mute -> None
  | Thief_escrow -> (
      match (Topology.escrow_index topo pid, A.node auto "await_money") with
      | Some i, Some (A.Input (deposit :: rest)) ->
          Some
            (fun env ->
              let b_act inst ctx store m =
                deposit.A.b_act inst ctx store m;
                steal env ctx i
              in
              let deposit = { deposit with b_act; next = A.stall } in
              A.rebuild auto ~changed:[ ("await_money", A.input (deposit :: rest)) ])
      | _ -> None)
  | Premature_refund_escrow -> (
      match (A.redirect auto "send_p" "refund", A.node auto "refund") with
      | Some send_p, Some _ -> Some (fun _ -> A.rebuild auto ~changed:[ send_p ])
      | _ -> None)
  | No_resolve_escrow | Withhold_chi_bob -> (
      let st = if t = No_resolve_escrow then "await_chi" else "send_chi" in
      match A.node auto st with
      | Some _ -> Some (fun _ -> A.rebuild auto ~changed:[ (st, A.input []) ])
      | None -> None)
  | Eager_chi_bob ->
      Option.map
        (fun send_chi _ -> A.rebuild auto ~initial:"send_chi" ~changed:[ send_chi ])
        (A.redirect auto "send_chi" A.stall)
  | Forge_chi_connector -> (
      (* χ, forged in Bob's name, to the escrow that owes the promise P *)
      match A.node auto "await_p" with
      | Some (A.Input ({ A.guard = A.Receive { from_ = A.One e_up; _ }; _ } :: _)) ->
          Some
            (fun env ->
              let bob = Topology.bob env.Env.topo in
              let chi = { Msg.x_payment = env.Env.payment; x_bob = bob } in
              let fake _ _ _ _ = Msg.Chi (Xcrypto.Auth.forge_value ~author:bob chi) in
              A.rebuild auto ~initial:"forge0"
                ~added:(A.script "forge" [ (e_up, false) ] fake))
      | _ -> None)
  | Double_money_customer -> (
      match A.node auto "send_money" with
      | Some (A.Output { to_; absolute; message; _ }) ->
          let dsts = [ (to_, absolute); (to_, absolute) ] in
          Some
            (fun _ ->
              A.rebuild auto ~initial:"money0"
                ~added:(A.script "money" dsts (fun _ -> message)))
      | _ -> None)
  | False_funded_escrow -> (
      match (Topology.escrow_index topo pid, List.map snd (A.outputs auto "report0")) with
      | Some i, (_ :: _ as tms) ->
          Some
            (fun env ->
              let amount = Env.amount_at env i in
              let first _ ctx _ =
                E.observe ctx (Obs.Funded_reported { escrow = pid; amount })
              in
              let report _ _ _ _ = Env.funded_report env i in
              A.rebuild auto ~initial:"false_report0"
                ~added:(A.script "false_report" tms ~first report))
      | _ -> None)
  | Impatient patience -> (
      (* the initial state's patience branch, re-armed as the [impatience]
         timer: its requests to the TMs, then the stall *)
      let branches =
        match A.node auto (A.state_name auto (A.initial_index auto)) with
        | Some (A.Input bs) -> bs
        | _ -> []
      in
      match List.find_opt (deadline_named "patience") branches with
      | Some { A.guard = A.Deadline { base; _ }; b_act; next; _ } -> (
          match List.rev (A.outputs auto next) with
          | (last, _) :: _ ->
              let asked = Option.get (A.redirect auto last A.stall) in
              let impatience =
                A.on_deadline ~timer:"impatience" ~base ~offset:patience ~act:b_act
                  ~next ()
              in
              Some
                (fun _ ->
                  A.rebuild auto ~initial:"impatient" ~changed:[ asked ]
                    ~added:[ ("impatient", A.input [ impatience ]) ])
          | [] -> None)
      | _ -> None)
  | Never_deposit -> (
      let honest b = not (deadline_named "deposit" b) in
      let changed =
        List.filter_map
          (fun st ->
            match A.node auto st with
            | Some (A.Input bs) when not (List.for_all honest bs) ->
                Some (st, A.input (List.filter honest bs))
            | _ -> None)
          (A.states auto)
      in
      if changed = [] then None else Some (fun _ -> A.rebuild auto ~changed))

let fits topo tmpl (pid, t) =
  silent t || (pid < Array.length tmpl && Option.is_some (edit topo ~pid t tmpl.(pid)))

let deviate (env : Env.t) tmpl faults =
  List.fold_left
    (fun acc (pid, t) ->
      if silent t then acc
      else
        let edited =
          if pid < Array.length tmpl then edit env.Env.topo ~pid t tmpl.(pid) else None
        in
        match edited with
        | Some build ->
            let acc = if acc == tmpl then Array.copy tmpl else acc in
            acc.(pid) <- build env;
            acc
        | None ->
            invalid_arg
              (Printf.sprintf "Byzantine.deviate: %s does not fit %s" (name t)
                 (Topology.role_name env.Env.topo pid)))
    tmpl faults

(* --- the STRATEGY@ROLE spelling of a substitution (--fault) --- *)

let spelling = function Crash_at_start -> "crash" | t -> name t

let spelled =
  [ Crash_at_start; Mute; Thief_escrow; Premature_refund_escrow; No_resolve_escrow;
    Eager_chi_bob; Withhold_chi_bob; Forge_chi_connector; Double_money_customer;
    Never_deposit; False_funded_escrow ]

let fault_to_string topo (pid, t) =
  spelling t ^ "@" ^ Topology.role_name topo pid

let fault_of_string topo tmpl spec =
  match String.split_on_char '@' spec with
  | [ strategy; role ] -> (
      match Topology.pid_of_name topo role with
      | None -> Error (Printf.sprintf "unknown role %S" role)
      | Some pid -> (
          match List.find_opt (fun t -> spelling t = strategy) spelled with
          | None -> Error (Printf.sprintf "unknown strategy %S" strategy)
          | Some t when fits topo tmpl (pid, t) -> Ok (pid, t)
          | Some _ ->
              Error
                (Printf.sprintf "strategy %S does not apply to role %S" strategy
                   role)))
  | _ -> Error (Printf.sprintf "fault %S is not strategy@role" spec)
