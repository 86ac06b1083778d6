(* Batched, pipelined notary committee.

   One committee of replicas (any validated quorum system) decides an
   ordered stream of payment verdicts. Verdicts are grouped into
   batches; each batch is decided by one single-shot DLS instance — a
   "slot". Slots are pipelined: slot s+1 is proposed while slot s's
   commit votes are still gathering, up to a configured depth, so the
   certificate rate is bounded by throughput, not by round-trip
   latency.

   Replica 0 is the sequencer: it drains pending requests into batches
   and opens slots (it is also every slot's round-0 leader, since
   [Dls.leader_of ~n 0 = 0]). Followers join a slot when its first
   message arrives and echo structurally valid batches. If the
   sequencer fails mid-slot the slot's DLS view change takes over as
   usual; a crashed sequencer stops new slots from opening — sequencer
   fail-over is out of scope here (the traffic harness runs honest
   committees; Byzantine *members* are exercised through the
   weak-protocol notary paths).

   External validity is structural only (well-formed batch: non-empty,
   within cap, distinct items). Whether an individual verdict is
   justified (all legs funded / abort requested) is the host's business
   — followers may not have seen the evidence the sequencer acted on,
   and validity divergence between replicas would cost liveness. The
   certificate a decided slot carries is the real interface: quorum
   signatures over the full batch, checkable by any outsider holding
   the committee registry. *)

module Dls = Consensus.Dls
open Xcrypto

(* slot- and item-keyed tables *)
module Ints = Sim.Int_table

type verdict = { item : int; commit : bool }
type batch = verdict list

type config = {
  qs : Quorum_system.t;
  self : int;
  auth_ids : int array;
  registry : Auth.registry;
  signer : Auth.signer;
  batch_cap : int;  (* max verdicts per certificate *)
  pipeline : int;  (* max concurrently undecided slots *)
  base_timeout : Sim.Sim_time.t;
}

type msg = { slot : int; dm : batch Dls.msg }

type effect =
  | Send of { to_ : int; m : msg }
  | Broadcast of msg
  | Set_slot_timer of { slot : int; round : int; after : Sim.Sim_time.t }
  | Certified of { slot : int; cert : batch Dls.decision_cert }

type slot_state = {
  dls : batch Dls.t;
  opened_at : Sim.Sim_time.t;
  proposed : batch;  (* [] on a replica that joined the slot *)
}

type decision = {
  fate : bool;  (* commit *)
  decided_in : int;  (* slot *)
  cert : batch Dls.decision_cert;
}

type item_status =
  | Queued
  | In_flight of int  (* the slot proposing it *)
  | Decided_item of decision

type stats = {
  certs : int;
  verdicts : int;
  max_batch : int;
  rounds : int;
  cert_lat_sum : int;
  cert_lat_max : int;
}

(* What a replica keeps is proportional to the slots and items in flight:
   a decided slot leaves [slots] and is remembered only as a tombstone
   (below [watermark], or in [decided_above] while an earlier slot is
   still open), so a late message never re-opens it. Only the sequencer
   answers verdict queries, so only it keeps per-item books, and an item
   leaves them when the host [forget]s it; a decision's certificate lives
   in its items' [Decided_item] and goes with the last of them. *)
type t = {
  cfg : config;
  dcfg : batch Dls.config;  (* every slot's consensus config *)
  slots : slot_state Ints.t;  (* the undecided slots *)
  mutable watermark : int;  (* every slot below is decided *)
  decided_above : unit Ints.t;  (* decided slots >= watermark *)
  mutable next_slot : int;  (* sequencer only *)
  pending : verdict Queue.t;  (* sequencer only *)
  status : item_status Ints.t;  (* sequencer only, by item *)
  mutable forgotten : Bytes.t;  (* sequencer only: a bit per forgotten item *)
  mutable stats : stats;  (* running aggregates over decided slots *)
}

(* Registered at module init so the committee families appear in the
   catalogue before any committee runs; shared by every committee in the
   process, like the consensus families. *)
let m_requests =
  Obsv.Metrics.counter Obsv.Metrics.default
    ~help:"Verdict requests accepted by committee sequencers"
    "xchain_committee_requests_total"

let m_certs =
  Obsv.Metrics.counter Obsv.Metrics.default
    ~help:"Batch certificates assembled (slots decided)"
    "xchain_committee_certs_total"

let m_occupancy =
  Obsv.Metrics.histogram Obsv.Metrics.default
    ~help:"Verdicts per batch certificate"
    "xchain_committee_batch_occupancy"

let m_rounds =
  Obsv.Metrics.histogram Obsv.Metrics.default
    ~help:"Consensus rounds needed per certificate (1 = round 0)"
    "xchain_committee_rounds_to_certify"

let m_latency =
  Obsv.Metrics.histogram Obsv.Metrics.default
    ~help:"Sim-time from slot open to certificate"
    "xchain_committee_cert_latency"

(* "b|<item>:<c or a>,...", written in place and copied out once: a
   batch's bytes are kept (see [memo_ser_batch]) and blitted into each
   echo and commit statement that carries it. *)
let rec put_verdicts buf pos = function
  | [] -> pos
  | v :: rest -> (
      let pos = Auth.put_int buf pos v.item in
      let pos = Auth.put_string buf pos (if v.commit then ":c" else ":a") in
      match rest with
      | [] -> pos
      | _ :: _ -> put_verdicts buf (Auth.put_char buf pos ',') rest)

let put_batch buf b = put_verdicts buf (Auth.put_string buf 0 "b|") b
let ser_batch b = Auth.statement put_batch b

let verdict_equal a b = a.item = b.item && a.commit = b.commit

let batch_equal a b =
  a == b || (List.length a = List.length b && List.for_all2 verdict_equal a b)

(* Items are distinct when no two neighbours of the sorted items are
   equal: one int array per check, O(k log k) however large the cap. *)
let distinct_items b =
  let items = Array.make (List.length b) 0 in
  List.iteri (fun i v -> items.(i) <- v.item) b;
  Array.sort Int.compare items;
  let rec go i =
    i >= Array.length items || (items.(i - 1) <> items.(i) && go (i + 1))
  in
  go 1

let valid_batch cfg b =
  b <> []
  && List.length b <= cfg.batch_cap
  && List.for_all (fun v -> v.item >= 0) b
  && distinct_items b

(* A slot's batch reaches every replica of a committee as one shared
   value (the sequencer's proposal, carried on by every echo, commit vote
   and certificate), so a memo keyed on the batch's physical identity
   serialises it once per slot for the whole committee instead of once
   per replica, vote bucket, signature and QC check. It holds the last
   few batches, enough for the slots a pipeline keeps open, and is one
   per domain: replicas run on their engine's domain, and no two domains
   share it. The empty batch is never proposed and stands for an empty
   entry. *)
type ser_memo = {
  batches : batch array;
  strings : string array;
  mutable next : int;
}

let memo_size = 16

let ser_memo =
  Domain.DLS.new_key (fun () ->
      {
        batches = Array.make memo_size [];
        strings = Array.make memo_size "";
        next = 0;
      })

let rec memo_find m b k =
  if k >= memo_size then -1
  else if m.batches.(k) == b then k
  else memo_find m b (k + 1)

let memo_ser_batch b =
  match b with
  | [] -> ser_batch b
  | _ :: _ -> (
      let m = Domain.DLS.get ser_memo in
      match memo_find m b 0 with
      | -1 ->
          let s = ser_batch b in
          m.batches.(m.next) <- b;
          m.strings.(m.next) <- s;
          m.next <- (m.next + 1) mod memo_size;
          s
      | k -> m.strings.(k))

let dls_cfg cfg =
  {
    Dls.qs = cfg.qs;
    self = cfg.self;
    auth_ids = cfg.auth_ids;
    registry = cfg.registry;
    signer = cfg.signer;
    ser = memo_ser_batch;
    equal = batch_equal;
    validate = (fun b -> valid_batch cfg b);
    base_timeout = cfg.base_timeout;
  }

let create cfg =
  (match Quorum_system.validate cfg.qs with
  | Ok () -> ()
  | Error e -> invalid_arg ("Committee.create: " ^ e));
  if cfg.batch_cap < 1 then invalid_arg "Committee.create: batch_cap < 1";
  if cfg.pipeline < 1 then invalid_arg "Committee.create: pipeline < 1";
  {
    cfg;
    dcfg = dls_cfg cfg;
    slots = Ints.create 32;
    watermark = 0;
    decided_above = Ints.create 8;
    next_slot = 0;
    pending = Queue.create ();
    status = Ints.create 64;
    forgotten = Bytes.empty;
    stats =
      {
        certs = 0;
        verdicts = 0;
        max_batch = 0;
        rounds = 0;
        cert_lat_sum = 0;
        cert_lat_max = 0;
      };
  }

let is_sequencer t = t.cfg.self = 0
let verify_cert cfg = Dls.verify_decision (dls_cfg cfg)

let decision_of t ~item =
  match Ints.find_opt t.status item with
  | Some (Decided_item d) -> Some d
  | _ -> None

let stats t = t.stats
let slot_count t = t.next_slot

let is_decided t slot = slot < t.watermark || Ints.mem t.decided_above slot

let mark_decided t slot =
  let rec advance w =
    if Ints.mem t.decided_above w then begin
      Ints.remove t.decided_above w;
      advance (w + 1)
    end
    else w
  in
  if slot = t.watermark then t.watermark <- advance (slot + 1)
  else Ints.replace t.decided_above slot ()

(* Forgotten items are non-negative: only decided items are forgotten,
   and a decided batch passed [valid_batch]. *)
let is_forgotten t item =
  let i = item lsr 3 in
  i < Bytes.length t.forgotten
  && Char.code (Bytes.get t.forgotten i) land (1 lsl (item land 7)) <> 0

let forget t ~item =
  match Ints.find_opt t.status item with
  | Some (Decided_item _) ->
      Ints.remove t.status item;
      let i = item lsr 3 in
      let len = Bytes.length t.forgotten in
      if i >= len then begin
        let grown = Bytes.make (max (i + 1) (2 * len)) '\000' in
        Bytes.blit t.forgotten 0 grown 0 len;
        t.forgotten <- grown
      end;
      let byte = Char.code (Bytes.get t.forgotten i) in
      Bytes.set t.forgotten i (Char.chr (byte lor (1 lsl (item land 7))))
  | _ -> ()

let wrap slot effs =
  List.filter_map
    (fun eff ->
      match eff with
      | Dls.Send { to_; m } -> Some (Send { to_; m = { slot; dm = m } })
      | Dls.Broadcast m -> Some (Broadcast { slot; dm = m })
      | Dls.Set_round_timer { round; after } ->
          Some (Set_slot_timer { slot; round; after })
      | Dls.Decided _ ->
          (* handled by the caller, which sees the decision via [decided] *)
          None)
    effs

(* Close a decided slot: leave a tombstone, fold it into the running
   stats and free its pipeline lane. The sequencer also records every
   verdict and requeues the items it proposed that the decided batch does
   not cover (a view change can decide a batch proposed by a different
   replica). *)
let close_slot t ~now slot st (dc : batch Dls.decision_cert) =
  Ints.remove t.slots slot;
  mark_decided t slot;
  let batch = List.length dc.Dls.d_value in
  let lat = Sim.Sim_time.sub now st.opened_at in
  let s = t.stats in
  t.stats <-
    {
      certs = s.certs + 1;
      verdicts = s.verdicts + batch;
      max_batch = max s.max_batch batch;
      rounds = s.rounds + dc.Dls.d_round + 1;
      cert_lat_sum = s.cert_lat_sum + lat;
      cert_lat_max = max s.cert_lat_max lat;
    };
  if is_sequencer t then begin
    List.iter
      (fun v ->
        if not (is_forgotten t v.item) then
          Ints.replace t.status v.item
            (Decided_item { fate = v.commit; decided_in = slot; cert = dc }))
      dc.Dls.d_value;
    List.iter
      (fun v ->
        match Ints.find_opt t.status v.item with
        | Some (In_flight s) when s = slot ->
            Ints.replace t.status v.item Queued;
            Queue.add v t.pending
        | _ -> ())
      st.proposed
  end;
  Obsv.Metrics.inc m_certs;
  Obsv.Metrics.observe m_occupancy batch;
  Obsv.Metrics.observe m_rounds (dc.Dls.d_round + 1);
  Obsv.Metrics.observe m_latency lat;
  [ Certified { slot; cert = dc } ]

(* Sequencer: open new slots while there is demand and pipeline room. *)
let rec try_open t ~now =
  if
    (not (is_sequencer t))
    || Ints.length t.slots >= t.cfg.pipeline
    || Queue.is_empty t.pending
  then []
  else begin
    let rec take k acc =
      if k = 0 || Queue.is_empty t.pending then List.rev acc
      else
        let v = Queue.pop t.pending in
        (* an item may have been decided while queued (requeue races) *)
        match Ints.find_opt t.status v.item with
        | Some (Decided_item _) | None -> take k acc
        | _ -> take (k - 1) (v :: acc)
    in
    let batch = take t.cfg.batch_cap [] in
    if batch = [] then []
    else begin
      let slot = t.next_slot in
      t.next_slot <- slot + 1;
      List.iter
        (fun v -> Ints.replace t.status v.item (In_flight slot))
        batch;
      let st =
        { dls = Dls.create t.dcfg; opened_at = now; proposed = batch }
      in
      Ints.replace t.slots slot st;
      let effs = wrap slot (Dls.start st.dls ~my_value:batch) in
      (* evaluation order matters: a degenerate quorum can decide inside
         [start], and only after that decision is folded in (freeing its
         pipeline lane) may further slots open *)
      let decided = drain_decision t ~now slot st in
      let opened = try_open t ~now in
      effs @ decided @ opened
    end
  end

(* A 1-replica committee (or a degenerate quorum) can decide inside the
   very call that started the slot; fold that decision in uniformly. A
   slot is drained once per call that touched it, and its close removes
   it from [slots], so no later call reaches it. *)
and drain_decision t ~now slot st =
  match Dls.decided st.dls with
  | Some dc ->
      (* close first — [@] would evaluate right to left, and [try_open]
         must see the freed pipeline lane or a fully-bursty sequencer
         (all requests already queued, none still arriving) never opens
         another slot *)
      let closed = close_slot t ~now slot st dc in
      let opened = try_open t ~now in
      closed @ opened
  | None -> []

let request t ~now v =
  if
    (not (is_sequencer t))
    || Ints.mem t.status v.item
    || is_forgotten t v.item
  then []  (* first verdict per item wins; duplicates are dropped *)
  else begin
    Obsv.Metrics.inc m_requests;
    Ints.replace t.status v.item Queued;
    Queue.add v t.pending;
    try_open t ~now
  end

(* Most votes change nothing a caller sees, so an empty answer is built
   without a wrapping closure or a list copy. *)
let deliver t ~now ~from_ m st join_effs =
  let effs =
    match Dls.on_msg st.dls ~from_ m.dm with
    | [] -> join_effs
    | effs -> join_effs @ wrap m.slot effs
  in
  match drain_decision t ~now m.slot st with [] -> effs | closed -> effs @ closed

(* A decided slot is only a tombstone: its late messages do nothing. *)
let on_msg t ~now ~from_ m =
  match Ints.find t.slots m.slot with
  | st -> deliver t ~now ~from_ m st []
  | exception Not_found when is_decided t m.slot -> []
  | exception Not_found ->
      (* a follower dragged into a slot by peer traffic: join without a
         preference (the sequencer proposes; we echo and vote) *)
      let st = { dls = Dls.create t.dcfg; opened_at = now; proposed = [] } in
      Ints.replace t.slots m.slot st;
      if m.slot >= t.next_slot then t.next_slot <- m.slot + 1;
      deliver t ~now ~from_ m st (wrap m.slot (Dls.join st.dls))

let on_slot_timeout t ~now ~slot ~round =
  match Ints.find_opt t.slots slot with
  | None -> []
  | Some st ->
      let effs = wrap slot (Dls.on_round_timeout st.dls round) in
      effs @ drain_decision t ~now slot st

let tag_of_msg m =
  match m.dm with
  | Dls.Propose _ -> "quorum:propose"
  | Dls.Echo _ -> "quorum:echo"
  | Dls.Commit _ -> "quorum:commit"
  | Dls.New_round _ -> "quorum:new-round"

let pp_msg ppf m = Format.fprintf ppf "%s[s%d]" (tag_of_msg m) m.slot
