open Sim
module E = Engine
module Auth = Xcrypto.Auth
module Asset = Ledger.Asset
module Book = Ledger.Book

type commit_protocol = Timelock | Cbc

type config = {
  deal : Deal.t;
  protocol : commit_protocol;
  compliant : bool array;
  delta : Sim_time.t;
  sigma : Sim_time.t;
  drift_ppm : int;
  gst : Sim_time.t option;
  cb_patience : Sim_time.t;
  seed : int;
  max_events : int;
}

let default_config deal protocol =
  {
    deal;
    protocol;
    compliant = Array.make (Deal.parties deal) true;
    delta = 100;
    sigma = 10;
    drift_ppm = 10_000;
    gst = None;
    cb_patience = 20_000;
    seed = 11;
    max_events = 100_000;
  }

type outcome = {
  config : config;
  status : E.status;
  trace : (Dmsg.t, Dobs.t) Trace.t;
  books : Book.t array;
  end_time : Sim_time.t;
  message_count : int;
}

let deal_id = 1

(* pid layout *)
let party_pid p = p
let arc_pid cfg k = Deal.parties cfg.deal + k
let cb_pid cfg = Deal.parties cfg.deal + Deal.arc_count cfg.deal

let indexed_arcs cfg = List.mapi (fun k a -> (k, a)) (Deal.arcs cfg.deal)

let vote_ok cfg registry (sv : Dmsg.vote_body Auth.signed) =
  let b = sv.Auth.payload in
  b.Dmsg.v_deal = deal_id
  && b.Dmsg.v_party = sv.Auth.author
  && sv.Auth.author < Deal.parties cfg.deal
  && Auth.verify_value registry ~ser:Dmsg.ser_vote sv

let full_vote_set cfg registry votes =
  let p = Deal.parties cfg.deal in
  let seen = Array.make p false in
  List.iter
    (fun sv -> if vote_ok cfg registry sv then seen.(sv.Auth.author) <- true)
    votes;
  Array.for_all Fun.id seen

(* Timelock ladder: enough real time for deposits, diameter rounds of vote
   gossip, and the claim hop — inflated for drift. *)
let claim_window cfg =
  let step = Sim_time.add cfg.sigma cfg.delta in
  let rungs = Deal.diameter cfg.deal + 7 in
  let raw = Sim_time.scale step ~num:rungs ~den:1 in
  Sim_time.scale raw ~num:(1_000_000 + cfg.drift_ppm) ~den:1_000_000

(* --------------------------- escrow per arc --------------------------- *)

let arc_escrow cfg registry books k (arc : Deal.arc) =
  let book = books.(k) in
  let deposit = ref None in
  let resolved = ref false in
  (* a valid claim or certificate may race ahead of the deposit (messages
     are unordered across senders); remember it and settle on arrival *)
  let pending :
      [ `Pay of Dmsg.vote_body Auth.signed list | `Refund ] option ref =
    ref None
  in
  let payee = party_pid arc.Deal.to_ in
  let payer = party_pid arc.Deal.from_ in
  let asset = arc.Deal.asset in
  (* On release, the winning claim's vote set becomes public on this chain
     (HLS: proofs are revealed by the claiming transaction), so the payer
     learns it and can redeem her own incoming legs — this is what makes
     a vote-hoarding adversary harmless under the timelock protocol. *)
  let pay ctx ~votes =
    match !deposit with
    | Some dep when not !resolved -> (
        match Book.release book dep ~to_:payee with
        | Ok () ->
            resolved := true;
            E.observe ctx (Dobs.Paid_out { arc = k; to_ = payee; asset });
            E.send ctx ~dst:payee (Dmsg.Paid { arc = k });
            if votes <> [] then E.send ctx ~dst:payer (Dmsg.Votes votes)
        | Error e ->
            E.observe ctx
              (Dobs.Rejected
                 { pid = arc_pid cfg k; what = Fmt.str "release: %a" Book.pp_error e }))
    | None -> pending := Some (`Pay votes)
    | Some _ -> ()
  in
  let refund ctx =
    match !deposit with
    | Some dep when not !resolved -> (
        match Book.refund book dep with
        | Ok () ->
            resolved := true;
            E.observe ctx (Dobs.Refunded { arc = k; to_ = payer; asset });
            E.send ctx ~dst:payer (Dmsg.Refund { arc = k })
        | Error e ->
            E.observe ctx
              (Dobs.Rejected
                 { pid = arc_pid cfg k; what = Fmt.str "refund: %a" Book.pp_error e }))
    | None -> pending := Some `Refund
    | Some _ -> ()
  in
  {
    E.on_start = (fun _ -> ());
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Dmsg.Deposit { arc } when arc = k && src = payer && !deposit = None
          -> (
            match Book.deposit book ~from_:payer ~amount:asset.Asset.amount with
            | Ok dep -> (
                deposit := Some dep;
                E.observe ctx (Dobs.Escrowed { arc = k; party = payer; asset });
                if cfg.protocol = Timelock then
                  E.set_timer_after ctx ~after:(claim_window cfg)
                    ~label:"timelock";
                (* the escrow phase is observable: tell the payee, and under
                   CBC also the certifier, that the leg is funded *)
                E.send ctx ~dst:payee (Dmsg.Escrowed_notice { arc = k });
                if cfg.protocol = Cbc then
                  E.send ctx ~dst:(cb_pid cfg) (Dmsg.Escrowed_notice { arc = k });
                match !pending with
                | Some (`Pay votes) -> pay ctx ~votes
                | Some `Refund -> refund ctx
                | None -> ())
            | Error e ->
                E.observe ctx
                  (Dobs.Rejected
                     { pid = arc_pid cfg k; what = Fmt.str "deposit: %a" Book.pp_error e }))
        | Dmsg.Claim { arc; votes }
          when arc = k && src = payee && cfg.protocol = Timelock ->
            if full_vote_set cfg registry votes then pay ctx ~votes
            else
              E.observe ctx
                (Dobs.Rejected { pid = arc_pid cfg k; what = "incomplete claim" })
        | Dmsg.Cb_cert sv when cfg.protocol = Cbc && src = cb_pid cfg ->
            if Auth.verify_value registry ~ser:Dmsg.ser_cb sv then
              if sv.Auth.payload.Dmsg.c_commit then pay ctx ~votes:[]
              else refund ctx
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        if String.equal label "timelock" && cfg.protocol = Timelock then
          refund ctx);
  }

(* ------------------------------ parties ------------------------------ *)

let party cfg registry signer p =
  let self = party_pid p in
  let my_out = List.filter (fun (_, a) -> a.Deal.from_ = p) (indexed_arcs cfg) in
  let my_in = List.filter (fun (_, a) -> a.Deal.to_ = p) (indexed_arcs cfg) in
  let succs = Deal.successors cfg.deal p in
  let known : (int, Dmsg.vote_body Auth.signed) Hashtbl.t = Hashtbl.create 8 in
  let escrowed_in : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let voted = ref false in
  let claimed = ref false in
  let outcomes : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let done_ = ref false in
  let maybe_finish ctx =
    (* terminated once every arc this party touches has a known fate *)
    let all_arcs = List.map fst my_out @ List.map fst my_in in
    if (not !done_) && List.for_all (Hashtbl.mem outcomes) all_arcs then begin
      done_ := true;
      let gained =
        List.exists
          (fun (k, _) -> Hashtbl.find_opt outcomes k = Some "paid")
          my_in
      in
      E.observe ctx
        (Dobs.Terminated
           { pid = self; outcome = (if gained then "deal-done" else "deal-off") });
      E.halt ctx
    end
  in
  let gossip ctx =
    let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
    List.iter
      (fun q -> E.send ctx ~dst:(party_pid q) (Dmsg.Votes votes))
      succs
  in
  let try_claim ctx =
    if
      (not !claimed)
      && full_vote_set cfg registry
           (Hashtbl.fold (fun _ sv acc -> sv :: acc) known [])
    then begin
      claimed := true;
      let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
      List.iter
        (fun (k, _) ->
          E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Claim { arc = k; votes }))
        my_in
    end
  in
  let learn ctx votes =
    let fresh = ref false in
    List.iter
      (fun sv ->
        if vote_ok cfg registry sv && not (Hashtbl.mem known sv.Auth.author)
        then begin
          Hashtbl.add known sv.Auth.author sv;
          fresh := true
        end)
      votes;
    if !fresh && !voted then begin
      gossip ctx;
      if cfg.protocol = Timelock then try_claim ctx
    end
  in
  (* HLS phase order: a party commits (votes) only once it has observed on
     every incoming chain that its promised asset is actually escrowed.
     Voting earlier lets a freeloader collect transfers it never funded. *)
  let maybe_vote ctx =
    if
      (not !voted)
      && List.for_all (fun (k, _) -> Hashtbl.mem escrowed_in k) my_in
    then begin
      voted := true;
      let my_vote =
        Auth.sign_value signer ~ser:Dmsg.ser_vote
          { Dmsg.v_party = p; v_deal = deal_id }
      in
      E.observe ctx (Dobs.Voted { party = p });
      Hashtbl.add known p my_vote;
      match cfg.protocol with
      | Timelock ->
          gossip ctx;
          try_claim ctx
      | Cbc -> E.send ctx ~dst:(cb_pid cfg) (Dmsg.Cb_vote my_vote)
    end
  in
  {
    E.on_start =
      (fun ctx ->
        (* escrow phase: fund outgoing legs *)
        List.iter
          (fun (k, _) -> E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Deposit { arc = k }))
          my_out;
        maybe_vote ctx);
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Dmsg.Escrowed_notice { arc }
          when List.exists (fun (k, _) -> k = arc) my_in
               && src = arc_pid cfg arc ->
            Hashtbl.replace escrowed_in arc ();
            maybe_vote ctx
        | Dmsg.Votes votes ->
            (* from peers (gossip) or from an arc escrow (on-chain reveal);
               signature checks inside [learn] gate what is accepted *)
            ignore src;
            learn ctx votes
        | Dmsg.Paid { arc } ->
            Hashtbl.replace outcomes arc "paid";
            maybe_finish ctx
        | Dmsg.Refund { arc } ->
            Hashtbl.replace outcomes arc "refunded";
            maybe_finish ctx
        | Dmsg.Cb_cert sv
          when cfg.protocol = Cbc
               && src = cb_pid cfg
               && Auth.verify_value registry ~ser:Dmsg.ser_cb sv ->
            (* nothing to do: escrows resolve; parties wait for Paid/Refund *)
            ()
        | _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* ------------------------ certified blockchain ------------------------ *)

let certified_chain cfg registry signer =
  let p = Deal.parties cfg.deal in
  let arcs_total = Deal.arc_count cfg.deal in
  let votes = Hashtbl.create 8 in
  let escrowed = Hashtbl.create 8 in
  let decided = ref false in
  let everyone ctx cert =
    for q = 0 to p - 1 do
      E.send ctx ~dst:(party_pid q) (Dmsg.Cb_cert cert)
    done;
    List.iter
      (fun (k, _) -> E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Cb_cert cert))
      (indexed_arcs cfg)
  in
  let decide ctx commit =
    if not !decided then begin
      decided := true;
      E.observe ctx (Dobs.Cb_decided { commit });
      let cert =
        Auth.sign_value signer ~ser:Dmsg.ser_cb
          { Dmsg.c_deal = deal_id; c_commit = commit }
      in
      everyone ctx cert
    end
  in
  let maybe_commit ctx =
    if Hashtbl.length votes = p && Hashtbl.length escrowed = arcs_total then
      decide ctx true
  in
  {
    E.on_start =
      (fun ctx ->
        E.set_timer_after ctx ~after:cfg.cb_patience ~label:"cb-patience");
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Dmsg.Cb_vote sv
          when vote_ok cfg registry sv && sv.Auth.author = src ->
            Hashtbl.replace votes sv.Auth.author ();
            maybe_commit ctx
        | Dmsg.Escrowed_notice { arc }
          when arc >= 0 && arc < arcs_total && src = arc_pid cfg arc ->
            Hashtbl.replace escrowed arc ();
            maybe_commit ctx
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        if String.equal label "cb-patience" then decide ctx false);
  }

(* ------------------------------- run ---------------------------------- *)

(* ----------------------------- telemetry ------------------------------- *)

let protocol_label = function Timelock -> "timelock" | Cbc -> "cbc"

(* Post-run, trace-derived (like Protocols.Runner): one root span per deal,
   one child per party carrying its termination status, plus the per-arc
   settlement spans (escrow -> paid/refunded). *)
let emit_telemetry (o : outcome) =
  let reg = Obsv.Metrics.default in
  let cfg = o.config in
  let labels = [ ("protocol", protocol_label cfg.protocol) ] in
  let obs = Trace.observations o.trace in
  let arcs_total = Deal.arc_count cfg.deal in
  let paid_arcs =
    List.length
      (List.filter (fun (_, _, e) -> match e with Dobs.Paid_out _ -> true | _ -> false) obs)
  in
  let status =
    if paid_arcs = arcs_total then "commit"
    else if paid_arcs = 0 then "abort"
    else "mixed"
  in
  Obsv.Metrics.inc
    (Obsv.Metrics.counter reg ~help:"Deals started" ~labels
       "xchain_deals_started_total");
  Obsv.Metrics.inc
    (Obsv.Metrics.counter reg ~help:"Deals settled, by final status"
       ~labels:(("status", status) :: labels)
       "xchain_deals_settled_total");
  Obsv.Metrics.observe
    (Obsv.Metrics.histogram reg ~labels
       ~help:"Deal wall-clock, init to quiescence, ticks" "xchain_deal_latency")
    o.end_time;
  let spans = Obsv.Span.default in
  if Obsv.Span.capture spans then begin
    let root =
      Obsv.Span.start spans ~name:"deal"
        ~attrs:
          [
            ("protocol", protocol_label cfg.protocol);
            ("parties", string_of_int (Deal.parties cfg.deal));
            ("arcs", string_of_int arcs_total);
            ("seed", string_of_int cfg.seed);
          ]
        ~at:0 ()
    in
    (* per-party children, closed by their Terminated observation *)
    for p = 0 to Deal.parties cfg.deal - 1 do
      let pspan =
        Obsv.Span.start spans ~parent:root
          ~name:(Printf.sprintf "party:%d" p)
          ~at:0 ()
      in
      match
        List.find_opt
          (fun (_, pid, e) ->
            pid = party_pid p
            && match e with Dobs.Terminated _ -> true | _ -> false)
          obs
      with
      | Some (t, _, Dobs.Terminated { outcome; _ }) ->
          Obsv.Span.finish ~status:outcome ~at:t pspan
      | _ -> Obsv.Span.finish ~status:"running" ~at:o.end_time pspan
    done;
    (* per-arc settlement: escrow observation opens, pay/refund closes *)
    List.iter
      (fun (k, _) ->
        let find f = List.find_opt (fun (_, _, e) -> f e) obs in
        let escrowed =
          find (function Dobs.Escrowed { arc; _ } -> arc = k | _ -> false)
        in
        match escrowed with
        | None -> ()
        | Some (t0, _, _) ->
            let closed =
              find (function
                | Dobs.Paid_out { arc; _ } | Dobs.Refunded { arc; _ } -> arc = k
                | _ -> false)
            in
            let aspan =
              Obsv.Span.start spans ~parent:root
                ~name:(Printf.sprintf "arc:%d" k)
                ~at:t0 ()
            in
            (match closed with
            | Some (t1, _, Dobs.Paid_out _) ->
                Obsv.Span.finish ~status:"paid" ~at:t1 aspan
            | Some (t1, _, _) -> Obsv.Span.finish ~status:"refunded" ~at:t1 aspan
            | None -> Obsv.Span.finish ~status:"held" ~at:o.end_time aspan))
      (indexed_arcs cfg);
    Obsv.Span.finish ~status ~at:o.end_time root
  end

let run ?(substitute = fun ~party:_ ~signer:_ -> None) cfg =
  let p = Deal.parties cfg.deal in
  if Array.length cfg.compliant <> p then
    invalid_arg "Deal_runner.run: compliant array size mismatch";
  let registry = Auth.create ~seed:(cfg.seed + 3) in
  let signers = Array.init p (fun q -> Auth.register registry q) in
  let books =
    Array.of_list
      (List.map
         (fun (k, (a : Deal.arc)) ->
           let book =
             Book.create ~currency:a.Deal.asset.Asset.currency
           in
           Book.open_account book ~owner:(party_pid a.Deal.from_)
             ~balance:a.Deal.asset.Asset.amount;
           Book.open_account book ~owner:(party_pid a.Deal.to_) ~balance:0;
           Book.open_account book ~owner:(arc_pid cfg k) ~balance:0;
           book)
         (indexed_arcs cfg))
  in
  let model =
    match cfg.gst with
    | None -> Network.Synchronous { delta = cfg.delta }
    | Some gst -> Network.Partially_synchronous { gst; delta = cfg.delta }
  in
  let network = Network.create model (Rng.create ~seed:(cfg.seed + 19)) in
  let engine =
    E.create ~tag_of:Dmsg.tag ~network ~sigma:cfg.sigma ~seed:cfg.seed ()
  in
  let clock_rng = Rng.create ~seed:(cfg.seed + 23) in
  let add handlers =
    ignore
      (E.add_process engine
         ~clock:(Clock.random clock_rng ~drift_ppm:cfg.drift_ppm)
         handlers)
  in
  for q = 0 to p - 1 do
    match substitute ~party:q ~signer:signers.(q) with
    | Some handlers -> add handlers
    | None ->
        if cfg.compliant.(q) then add (party cfg registry signers.(q) q)
        else add E.silent
  done;
  List.iter (fun (k, a) -> add (arc_escrow cfg registry books k a)) (indexed_arcs cfg);
  (match cfg.protocol with
  | Cbc ->
      let cb_signer = Auth.register registry (cb_pid cfg) in
      add (certified_chain cfg registry cb_signer)
  | Timelock -> ());
  let status = E.run ~max_events:cfg.max_events engine in
  let o =
    {
      config = cfg;
      status;
      trace = E.trace engine;
      books;
      end_time = E.now engine;
      message_count = Trace.message_count (E.trace engine);
    }
  in
  emit_telemetry o;
  o

let events outcome = Trace.observations outcome.trace

let gained outcome party =
  List.fold_left
    (fun acc (_, _, o) ->
      match o with
      | Dobs.Paid_out { to_; asset; _ } when to_ = party ->
          Asset.Bag.add acc asset
      | _ -> acc)
    Asset.Bag.empty (events outcome)

let lost outcome party =
  let cfg = outcome.config in
  List.fold_left
    (fun acc (_, _, o) ->
      match o with
      | Dobs.Paid_out { arc; asset; _ } ->
          let a = List.nth (Deal.arcs cfg.deal) arc in
          if a.Deal.from_ = party then Asset.Bag.add acc asset else acc
      | _ -> acc)
    Asset.Bag.empty (events outcome)

let escrowed_forever outcome =
  let cfg = outcome.config in
  List.filter_map
    (fun (k, (a : Deal.arc)) ->
      match Book.deposit_status outcome.books.(k) 0 with
      | Some Book.Held -> Some (k, a.Deal.from_)
      | _ -> None)
    (indexed_arcs cfg)
