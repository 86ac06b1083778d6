open Xcrypto

type round = int
type 'v echo_body = { e_round : round; e_value : 'v }
type 'v commit_body = { c_round : round; c_value : 'v }

type 'v qc = {
  q_round : round;
  q_value : 'v;
  q_sigs : 'v echo_body Auth.signed list;
}

type 'v decision_cert = {
  d_value : 'v;
  d_round : round;
  d_sigs : 'v commit_body Auth.signed list;
}

type 'v msg =
  | Propose of { round : round; value : 'v; justif : 'v qc option }
  | Echo of 'v echo_body Auth.signed
  | Commit of 'v commit_body Auth.signed
  | New_round of { round : round; locked : 'v qc option }

type 'v effect =
  | Send of { to_ : int; m : 'v msg }
  | Broadcast of 'v msg
  | Set_round_timer of { round : round; after : Sim.Sim_time.t }
  | Decided of 'v decision_cert

type 'v config = {
  qs : Quorum_system.t;
  self : int;
  auth_ids : int array;
  registry : Auth.registry;
  signer : Auth.signer;
  ser : 'v -> string;
  equal : 'v -> 'v -> bool;
  validate : 'v -> bool;
  base_timeout : Sim.Sim_time.t;
}

type 'v t = {
  cfg : 'v config;
  put_echo : Bytes.t -> 'v echo_body -> int;  (* [ser_echo cfg.ser] *)
  put_commit : Bytes.t -> 'v commit_body -> int;
  mutable round : round;
  mutable preference : 'v option;
  mutable lock : 'v qc option;
  mutable decision : 'v decision_cert option;
  echo_votes : ('v, 'v echo_body) Vote_book.t;
  commit_votes : ('v, 'v commit_body) Vote_book.t;
  mutable echoed : round list;  (* rounds in which we already echoed *)
  mutable committed : round list;
  mutable proposed : round list;
}

(* Registered at module init so the consensus families appear in the
   catalogue even before any committee runs; handles are shared by every
   Dls instance in the process (the registry is process-wide anyway). *)
let m_rounds =
  Obsv.Metrics.counter Obsv.Metrics.default
    ~help:"Consensus rounds entered (across all replicas)"
    "xchain_consensus_rounds_total"

let m_view_changes =
  Obsv.Metrics.counter Obsv.Metrics.default
    ~help:"Round timeouts that forced a view change"
    "xchain_consensus_view_changes_total"

let m_decisions =
  Obsv.Metrics.counter Obsv.Metrics.default
    ~help:"Decision certificates assembled" "xchain_consensus_decisions_total"

let m_rounds_to_decide =
  Obsv.Metrics.histogram Obsv.Metrics.default
    ~help:"Rounds needed to reach a decision (1 = decided in round 0)"
    "xchain_consensus_rounds_to_decide"

let committee_n cfg = Quorum_system.size cfg.qs

let leader_of ~n round = ((round mod n) + n) mod n

(* The statements are written in place: "<kind>|<round>|" in front of
   the value's serialisation, which for a batch is memoised, so a vote's
   statement is never concatenated. *)
let ser_vote kind ser buf round value =
  let pos = Auth.put_char buf (Auth.put_string buf 0 kind) '|' in
  let pos = Auth.put_char buf (Auth.put_int buf pos round) '|' in
  Auth.put_string buf pos (ser value)

let ser_echo ser buf (b : 'v echo_body) = ser_vote "echo" ser buf b.e_round b.e_value

let ser_commit ser buf (b : 'v commit_body) =
  ser_vote "commit" ser buf b.c_round b.c_value

(* A signature counts when its vote is for exactly the wanted (round,
   value), its author is a replica not already counted, and it verifies
   against its own vote's statement. Each vote of a certificate then
   signs the one statement of the wanted vote, because [cfg.ser] is
   injective modulo [cfg.equal]: equal values serialise equally. *)
let verify_vote_set cfg ~put ~round_of ~value_of ~want_round ~want_value sigs =
  let present = Array.make (committee_n cfg) false in
  List.iter
    (fun (sv : _ Auth.signed) ->
      let b = sv.Auth.payload in
      if round_of b = want_round && cfg.equal (value_of b) want_value then begin
        let i = Vote_book.replica_index cfg.auth_ids sv.Auth.author in
        if i >= 0 && (not present.(i)) && Auth.verify_value cfg.registry ~put sv
        then present.(i) <- true
      end)
    sigs;
  Quorum_system.is_quorum cfg.qs ~present

let verify_qc t (qc : 'v qc) =
  verify_vote_set t.cfg ~put:t.put_echo
    ~round_of:(fun b -> b.e_round)
    ~value_of:(fun b -> b.e_value)
    ~want_round:qc.q_round ~want_value:qc.q_value qc.q_sigs

let verify_decision cfg =
  let put = ser_commit cfg.ser in
  fun (dc : 'v decision_cert) ->
    verify_vote_set cfg ~put
      ~round_of:(fun b -> b.c_round)
      ~value_of:(fun b -> b.c_value)
      ~want_round:dc.d_round ~want_value:dc.d_value dc.d_sigs

let create cfg =
  (match Quorum_system.validate cfg.qs with
  | Ok () -> ()
  | Error e -> invalid_arg ("Dls.create: " ^ e));
  let n = committee_n cfg in
  if cfg.self < 0 || cfg.self >= n then invalid_arg "Dls.create: bad self";
  if Array.length cfg.auth_ids <> n then
    invalid_arg "Dls.create: auth_ids size mismatch";
  if Auth.signer_id cfg.signer <> cfg.auth_ids.(cfg.self) then
    invalid_arg "Dls.create: signer does not match self";
  let book put =
    Vote_book.create ~qs:cfg.qs ~auth_ids:cfg.auth_ids ~registry:cfg.registry
      ~equal:cfg.equal ~put
  in
  let put_echo = ser_echo cfg.ser and put_commit = ser_commit cfg.ser in
  {
    cfg;
    put_echo;
    put_commit;
    round = 0;
    preference = None;
    lock = None;
    decision = None;
    echo_votes = book put_echo;
    commit_votes = book put_commit;
    echoed = [];
    committed = [];
    proposed = [];
  }

let decided t = t.decision
let locked t = t.lock

let tally t kind ~round value =
  match kind with
  | `Echo -> Vote_book.holds t.echo_votes ~round value
  | `Commit -> Vote_book.holds t.commit_votes ~round value

let round_timeout t round =
  let shift = Stdlib.min round 16 in
  Sim.Sim_time.scale t.cfg.base_timeout ~num:(1 lsl shift) ~den:1

(* The value this replica is willing to champion: its lock if any, else its
   initial preference. *)
let champion t =
  match t.lock with
  | Some qc -> Some qc.q_value
  | None -> t.preference

(* Propose only values we can stand behind: a locked value always (its QC
   is the justification), otherwise our preference only if it passes
   external validity — a notary with nothing valid to say stays silent and
   lets the round time out. *)
let propose_effects t =
  if List.mem t.round t.proposed then []
  else
    let value =
      match t.lock with
      | Some qc -> Some qc.q_value
      | None -> (
          match champion t with
          | Some v when t.cfg.validate v -> Some v
          | Some _ | None -> None)
    in
    match value with
    | None -> []
    | Some v ->
        t.proposed <- t.round :: t.proposed;
        let justif = t.lock in
        [ Broadcast (Propose { round = t.round; value = v; justif }) ]

let enter_round t round =
  if round <= t.round && round <> 0 then []
  else begin
    Obsv.Metrics.inc m_rounds;
    t.round <- Stdlib.max t.round round;
    let timer =
      Set_round_timer { round = t.round; after = round_timeout t t.round }
    in
    let lead =
      if leader_of ~n:(committee_n t.cfg) t.round = t.cfg.self then propose_effects t
      else []
    in
    (timer :: lead, ())
    |> fst
  end

let start t ~my_value =
  t.preference <- Some my_value;
  enter_round t 0

let join t = enter_round t 0

let update_preference t v =
  if t.decision <> None then []
  else begin
    t.preference <- Some v;
    if leader_of ~n:(committee_n t.cfg) t.round = t.cfg.self then propose_effects t
    else []
  end

let above_lock t round =
  match t.lock with Some cur -> cur.q_round < round | None -> true

(* Adopt a peer's QC as our lock if it is higher than what we hold. *)
let maybe_adopt t (qc : 'v qc) =
  if above_lock t qc.q_round && verify_qc t qc then t.lock <- Some qc

let may_echo t ~round:_ ~value ~justif =
  t.cfg.validate value
  &&
  match t.lock with
  | None -> true
  | Some lock_qc ->
      t.cfg.equal lock_qc.q_value value
      || (match justif with
         | Some (j : 'v qc) ->
             j.q_round > lock_qc.q_round
             && t.cfg.equal j.q_value value
             && verify_qc t j
         | None -> false)

let echo_effects t ~round ~value =
  if List.mem round t.echoed then []
  else begin
    t.echoed <- round :: t.echoed;
    let body = { e_round = round; e_value = value } in
    let signed = Auth.sign_value t.cfg.signer ~put:t.put_echo body in
    [ Broadcast (Echo signed) ]
  end

let commit_effects t ~round ~value =
  if List.mem round t.committed then []
  else begin
    t.committed <- round :: t.committed;
    let body = { c_round = round; c_value = value } in
    let signed = Auth.sign_value t.cfg.signer ~put:t.put_commit body in
    [ Broadcast (Commit signed) ]
  end

(* The QC of this replica's own bucket is adopted without [verify_qc]:
   every signature in it verified against the bucket's serialised vote
   when it was recorded, its authors are distinct replicas (the book
   keeps one per replica) and the tally says they form a quorum — the
   re-check cannot fail. Later echoes of the bucket build no QC: the
   lock only rises, so one not adopted at the quorum never will be. *)
let on_echo t (sv : 'v echo_body Auth.signed) =
  let b = sv.Auth.payload in
  match Vote_book.record t.echo_votes ~round:b.e_round ~value:b.e_value sv with
  | Reached q_sigs ->
      if above_lock t b.e_round then
        t.lock <- Some { q_round = b.e_round; q_value = b.e_value; q_sigs };
      if b.e_round = t.round then
        commit_effects t ~round:b.e_round ~value:b.e_value
      else []
  | Past_quorum when b.e_round = t.round ->
      commit_effects t ~round:b.e_round ~value:b.e_value
  | Past_quorum | Counted | Dropped -> []

(* The first commit quorum decides; the vote books are then dropped, as
   a decided replica reads them no more. *)
let on_commit t (sv : 'v commit_body Auth.signed) =
  let b = sv.Auth.payload in
  match
    Vote_book.record t.commit_votes ~round:b.c_round ~value:b.c_value sv
  with
  | Reached d_sigs ->
      let dc = { d_value = b.c_value; d_round = b.c_round; d_sigs } in
      t.decision <- Some dc;
      Vote_book.clear t.echo_votes;
      Vote_book.clear t.commit_votes;
      Obsv.Metrics.inc m_decisions;
      Obsv.Metrics.observe m_rounds_to_decide (b.c_round + 1);
      [ Decided dc ]
  | Past_quorum | Counted | Dropped -> []

let on_msg t ~from_ m =
  if Option.is_some t.decision then []
  else
    match m with
    | Propose { round; value; justif } ->
        (match justif with Some qc -> maybe_adopt t qc | None -> ());
        if
          round = t.round
          && from_ = leader_of ~n:(committee_n t.cfg) round
          && may_echo t ~round ~value ~justif
        then echo_effects t ~round ~value
        else []
    | Echo sv -> on_echo t sv
    | Commit sv -> on_commit t sv
    | New_round { round; locked } -> (
        (match locked with Some qc -> maybe_adopt t qc | None -> ());
        (* Catch up if the network has moved past us. *)
        if round > t.round then
          let effs = enter_round t round in
          effs
        else if
          round = t.round && leader_of ~n:(committee_n t.cfg) t.round = t.cfg.self
        then
          (* late New_round may have raised our lock; nothing to re-send
             (we propose once per round), but if we have not proposed yet
             because we had no preference, try now. *)
          propose_effects t
        else [])

let on_round_timeout t round =
  if t.decision <> None || round <> t.round then []
  else begin
    Obsv.Metrics.inc m_view_changes;
    let next = t.round + 1 in
    let nr = New_round { round = next; locked = t.lock } in
    let effs = Broadcast nr :: enter_round t next in
    effs
  end
