open Sim
module E = Engine
module Auth = Xcrypto.Auth

type t =
  | Freeloader
  | Forged_votes
  | Premature_claim
  | Double_claim
  | Vote_hoarder
  | Lazy_claim

let name = function
  | Freeloader -> "freeloader"
  | Forged_votes -> "forged-votes"
  | Premature_claim -> "premature-claim"
  | Double_claim -> "double-claim"
  | Vote_hoarder -> "vote-hoarder"
  | Lazy_claim -> "lazy-claim"

let deal_id = 1
let party_pid p = p
let arc_pid (cfg : Deal_runner.config) k = Deal.parties cfg.Deal_runner.deal + k
let cb_pid (cfg : Deal_runner.config) =
  Deal.parties cfg.Deal_runner.deal + Deal.arc_count cfg.Deal_runner.deal

let indexed_arcs (cfg : Deal_runner.config) =
  List.mapi (fun k a -> (k, a)) (Deal.arcs cfg.Deal_runner.deal)

let my_incoming cfg p =
  List.filter (fun (_, a) -> a.Deal.to_ = p) (indexed_arcs cfg)

let my_vote signer p =
  Auth.sign_value signer ~ser:Dmsg.ser_vote { Dmsg.v_party = p; v_deal = deal_id }

(* Votes, gossips, never deposits: the attack the HLS phase order exists to
   stop. With the phase discipline in place, its downstream party never
   votes, so it can never assemble a claimable vote set. *)
let freeloader (cfg : Deal_runner.config) ~signer ~party =
  let deal = cfg.Deal_runner.deal in
  let known : (int, Dmsg.vote_body Auth.signed) Hashtbl.t = Hashtbl.create 8 in
  let claimed = ref false in
  let succs = Deal.successors deal party in
  let gossip ctx =
    let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
    List.iter (fun q -> E.send ctx ~dst:(party_pid q) (Dmsg.Votes votes)) succs
  in
  let try_claim ctx =
    let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
    if (not !claimed) && Hashtbl.length known = Deal.parties deal then begin
      claimed := true;
      List.iter
        (fun (k, _) -> E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Claim { arc = k; votes }))
        (my_incoming cfg party)
    end
  in
  {
    E.on_start =
      (fun ctx ->
        (* vote immediately, deposit never *)
        Hashtbl.add known party (my_vote signer party);
        E.observe ctx (Dobs.Voted { party });
        (match cfg.Deal_runner.protocol with
        | Deal_runner.Timelock -> gossip ctx
        | Deal_runner.Cbc ->
            E.send ctx ~dst:(cb_pid cfg) (Dmsg.Cb_vote (my_vote signer party))));
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Dmsg.Votes votes when src < Deal.parties deal ->
            List.iter
              (fun (sv : Dmsg.vote_body Auth.signed) ->
                Hashtbl.replace known sv.Auth.author sv)
              votes;
            gossip ctx;
            if cfg.Deal_runner.protocol = Deal_runner.Timelock then try_claim ctx
        | _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* Claims every incoming leg right away with fabricated signatures. *)
let forged_votes (cfg : Deal_runner.config) ~party =
  let deal = cfg.Deal_runner.deal in
  {
    E.on_start =
      (fun ctx ->
        let fake =
          List.init (Deal.parties deal) (fun q ->
              Auth.forge_value ~author:q { Dmsg.v_party = q; v_deal = deal_id })
        in
        List.iter
          (fun (k, _) ->
            E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Claim { arc = k; votes = fake }))
          (my_incoming cfg party));
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* Plays honestly except that it claims as soon as it has any votes at all. *)
let premature_claim (cfg : Deal_runner.config) ~signer ~party =
  let collected : (int, Dmsg.vote_body Auth.signed) Hashtbl.t = Hashtbl.create 8 in
  {
    E.on_start =
      (fun ctx ->
        Hashtbl.add collected party (my_vote signer party);
        let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) collected [] in
        List.iter
          (fun (k, _) ->
            E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Claim { arc = k; votes }))
          (my_incoming cfg party));
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* Plays the honest protocol (deposits, phase-ordered voting, gossip) but
   submits every claim twice — the ledger's single-resolution rule must
   make the duplicates no-ops. *)
let double_claim (cfg : Deal_runner.config) ~signer ~party =
  let deal = cfg.Deal_runner.deal in
  let my_out = List.filter (fun (_, a) -> a.Deal.from_ = party) (indexed_arcs cfg) in
  let my_in = my_incoming cfg party in
  let known : (int, Dmsg.vote_body Auth.signed) Hashtbl.t = Hashtbl.create 8 in
  let escrowed_in : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let voted = ref false in
  let succs = Deal.successors deal party in
  let gossip ctx =
    let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
    List.iter (fun q -> E.send ctx ~dst:(party_pid q) (Dmsg.Votes votes)) succs
  in
  let full ctx =
    if Hashtbl.length known = Deal.parties deal then begin
      let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
      List.iter
        (fun (k, _) ->
          (* the deviation: every claim goes out twice *)
          E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Claim { arc = k; votes });
          E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Claim { arc = k; votes }))
        my_in
    end
  in
  let maybe_vote ctx =
    if
      (not !voted)
      && List.for_all (fun (k, _) -> Hashtbl.mem escrowed_in k) my_in
    then begin
      voted := true;
      Hashtbl.add known party (my_vote signer party);
      E.observe ctx (Dobs.Voted { party });
      gossip ctx;
      full ctx
    end
  in
  {
    E.on_start =
      (fun ctx ->
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
        | Dmsg.Votes votes when src < Deal.parties deal && !voted ->
            List.iter
              (fun (sv : Dmsg.vote_body Auth.signed) ->
                Hashtbl.replace known sv.Auth.author sv)
              votes;
            gossip ctx;
            full ctx
        | _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* Escrows and votes but never passes votes on. *)
let vote_hoarder (cfg : Deal_runner.config) ~signer ~party =
  let deal = cfg.Deal_runner.deal in
  let my_out = List.filter (fun (_, a) -> a.Deal.from_ = party) (indexed_arcs cfg) in
  {
    E.on_start =
      (fun ctx ->
        List.iter
          (fun (k, _) -> E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Deposit { arc = k }))
          my_out;
        E.observe ctx (Dobs.Voted { party });
        match cfg.Deal_runner.protocol with
        | Deal_runner.Timelock ->
            (* cast the vote to successors once, then hoard everything *)
            List.iter
              (fun q ->
                E.send ctx ~dst:(party_pid q) (Dmsg.Votes [ my_vote signer party ]))
              (Deal.successors deal party)
        | Deal_runner.Cbc ->
            E.send ctx ~dst:(cb_pid cfg) (Dmsg.Cb_vote (my_vote signer party)));
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ ~label:_ -> ());
  }

(* Honest phase-ordered behaviour, except claims are deferred to the last
   moment of the timelock window. *)
let lazy_claim (cfg : Deal_runner.config) ~signer ~party =
  let deal = cfg.Deal_runner.deal in
  let my_out = List.filter (fun (_, a) -> a.Deal.from_ = party) (indexed_arcs cfg) in
  let my_in = my_incoming cfg party in
  let known : (int, Dmsg.vote_body Auth.signed) Hashtbl.t = Hashtbl.create 8 in
  let escrowed_in : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let voted = ref false in
  let claimed = ref false in
  let succs = Deal.successors deal party in
  let gossip ctx =
    let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
    List.iter (fun q -> E.send ctx ~dst:(party_pid q) (Dmsg.Votes votes)) succs
  in
  let late =
    (* aim just inside the window (measured from the escrow notice, which
       trails the deposit by about one hop): late enough that the on-chain
       reveal of this claim reaches the upstream payer only around her own
       expiry *)
    let step = Sim_time.add cfg.Deal_runner.delta cfg.Deal_runner.sigma in
    Sim_time.sub (Deal_runner.claim_window cfg) (Sim_time.scale step ~num:2 ~den:1)
  in
  let maybe_vote ctx =
    if
      (not !voted)
      && List.for_all (fun (k, _) -> Hashtbl.mem escrowed_in k) my_in
    then begin
      voted := true;
      Hashtbl.add known party (my_vote signer party);
      E.observe ctx (Dobs.Voted { party });
      gossip ctx;
      (match cfg.Deal_runner.protocol with
      | Deal_runner.Cbc ->
          E.send ctx ~dst:(cb_pid cfg) (Dmsg.Cb_vote (my_vote signer party))
      | Deal_runner.Timelock -> ());
      if my_in <> [] then E.set_timer_after ctx ~after:late ~label:"lazy"
    end
  in
  {
    E.on_start =
      (fun ctx ->
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
            List.iter
              (fun (sv : Dmsg.vote_body Auth.signed) ->
                Hashtbl.replace known sv.Auth.author sv)
              votes;
            if !voted then gossip ctx
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        if
          String.equal label "lazy"
          && (not !claimed)
          && Hashtbl.length known = Deal.parties deal
        then begin
          claimed := true;
          let votes = Hashtbl.fold (fun _ sv acc -> sv :: acc) known [] in
          List.iter
            (fun (k, _) ->
              E.send ctx ~dst:(arc_pid cfg k) (Dmsg.Claim { arc = k; votes }))
            my_in
        end);
  }

let handlers cfg ~signer ~party strategy =
  match strategy with
  | Freeloader -> freeloader cfg ~signer ~party
  | Forged_votes -> forged_votes cfg ~party
  | Premature_claim -> premature_claim cfg ~signer ~party
  | Double_claim -> double_claim cfg ~signer ~party
  | Vote_hoarder -> vote_hoarder cfg ~signer ~party
  | Lazy_claim -> lazy_claim cfg ~signer ~party

let run_with_faults cfg ~faults =
  let compliant = Array.copy cfg.Deal_runner.compliant in
  List.iter (fun (p, _) -> compliant.(p) <- false) faults;
  let cfg = { cfg with Deal_runner.compliant } in
  Deal_runner.run
    ~substitute:(fun ~party ~signer ->
      match List.assoc_opt party faults with
      | Some strategy -> Some (handlers cfg ~signer ~party strategy)
      | None ->
          if compliant.(party) then None else Some E.silent)
    cfg
