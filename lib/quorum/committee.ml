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
  mutable closed : bool;
}

type item_status =
  | Queued
  | In_flight of { slot : int; v : verdict }
  | Decided_item of { commit : bool; slot : int }

type t = {
  cfg : config;
  slots : (int, slot_state) Hashtbl.t;
  mutable next_slot : int;  (* sequencer only *)
  mutable open_slots : int;  (* undecided slots this replica knows *)
  pending : verdict Queue.t;
  status : (int, item_status) Hashtbl.t;  (* by item *)
  certs : (int, batch Dls.decision_cert) Hashtbl.t;  (* by slot *)
  lat : (int, Sim.Sim_time.t) Hashtbl.t;  (* slot open -> certificate *)
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

let ser_verdict v = string_of_int v.item ^ if v.commit then ":c" else ":a"

let ser_batch b = "b|" ^ String.concat "," (List.map ser_verdict b)

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

(* A slot's batch reaches each replica as one shared value (the
   proposal's, carried on by every echo and commit vote), so a one-entry
   memo keyed on physical equality serialises it once per slot instead of
   once per vote bucket, signature and QC check. *)
let memo_ser_batch () =
  let last = ref None in
  fun b ->
    match !last with
    | Some (b', s) when b' == b -> s
    | _ ->
        let s = ser_batch b in
        last := Some (b, s);
        s

let dls_cfg cfg =
  {
    Dls.qs = cfg.qs;
    self = cfg.self;
    auth_ids = cfg.auth_ids;
    registry = cfg.registry;
    signer = cfg.signer;
    ser = memo_ser_batch ();
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
    slots = Hashtbl.create 32;
    next_slot = 0;
    open_slots = 0;
    pending = Queue.create ();
    status = Hashtbl.create 64;
    certs = Hashtbl.create 32;
    lat = Hashtbl.create 32;
  }

let is_sequencer t = t.cfg.self = 0
let verify_cert cfg =
  let dcfg = dls_cfg cfg in
  fun dc -> Dls.verify_decision dcfg dc

let verdict_of t ~item =
  match Hashtbl.find_opt t.status item with
  | Some (Decided_item { commit; slot }) -> Some (commit, slot)
  | _ -> None

let cert_of_slot t slot = Hashtbl.find_opt t.certs slot
let cert_latency t slot = Hashtbl.find_opt t.lat slot
let decided_slots t = Hashtbl.length t.certs
let slot_count t = t.next_slot

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

(* Close a decided slot: record every verdict, requeue in-flight items
   the decided batch does not cover (a view change can decide a batch
   proposed by a different replica), and free a pipeline lane. Only the
   items of the batch this replica proposed can be in flight in this slot,
   so the walk over every item ever seen runs only when one of them is
   still in flight once the decided verdicts are recorded. *)
let close_slot t ~now slot st (dc : batch Dls.decision_cert) =
  st.closed <- true;
  t.open_slots <- t.open_slots - 1;
  Hashtbl.replace t.certs slot dc;
  List.iter
    (fun v ->
      Hashtbl.replace t.status v.item
        (Decided_item { commit = v.commit; slot }))
    dc.Dls.d_value;
  let uncovered (v : verdict) =
    match Hashtbl.find_opt t.status v.item with
    | Some (In_flight { slot = s; _ }) -> s = slot
    | _ -> false
  in
  if List.exists uncovered st.proposed then
    Hashtbl.iter
      (fun item status ->
        match status with
        | In_flight { slot = s; v }
          when s = slot
               && not (List.exists (fun d -> d.item = item) dc.Dls.d_value) ->
            Hashtbl.replace t.status item Queued;
            Queue.add v t.pending
        | _ -> ())
      t.status;
  Hashtbl.replace t.lat slot (Sim.Sim_time.sub now st.opened_at);
  Obsv.Metrics.inc m_certs;
  Obsv.Metrics.observe m_occupancy (List.length dc.Dls.d_value);
  Obsv.Metrics.observe m_rounds (dc.Dls.d_round + 1);
  Obsv.Metrics.observe m_latency (Sim.Sim_time.sub now st.opened_at);
  [ Certified { slot; cert = dc } ]

(* Sequencer: open new slots while there is demand and pipeline room. *)
let rec try_open t ~now =
  if
    (not (is_sequencer t))
    || t.open_slots >= t.cfg.pipeline
    || Queue.is_empty t.pending
  then []
  else begin
    let rec take k acc =
      if k = 0 || Queue.is_empty t.pending then List.rev acc
      else
        let v = Queue.pop t.pending in
        (* an item may have been decided while queued (requeue races) *)
        match Hashtbl.find_opt t.status v.item with
        | Some (Decided_item _) -> take k acc
        | _ -> take (k - 1) (v :: acc)
    in
    let batch = take t.cfg.batch_cap [] in
    if batch = [] then []
    else begin
      let slot = t.next_slot in
      t.next_slot <- slot + 1;
      t.open_slots <- t.open_slots + 1;
      List.iter
        (fun v -> Hashtbl.replace t.status v.item (In_flight { slot; v }))
        batch;
      let st =
        {
          dls = Dls.create (dls_cfg t.cfg);
          opened_at = now;
          proposed = batch;
          closed = false;
        }
      in
      Hashtbl.replace t.slots slot st;
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
   very call that started the slot; fold that decision in uniformly. *)
and drain_decision t ~now slot st =
  match Dls.decided st.dls with
  | Some dc when not st.closed ->
      (* close first — [@] would evaluate right to left, and [try_open]
         must see the freed pipeline lane or a fully-bursty sequencer
         (all requests already queued, none still arriving) never opens
         another slot *)
      let closed = close_slot t ~now slot st dc in
      let opened = try_open t ~now in
      closed @ opened
  | _ -> []

let request t ~now v =
  match Hashtbl.find_opt t.status v.item with
  | Some _ -> []  (* first verdict per item wins; duplicates are dropped *)
  | None ->
      Obsv.Metrics.inc m_requests;
      Hashtbl.replace t.status v.item Queued;
      Queue.add v t.pending;
      try_open t ~now

let slot_for t ~now slot =
  match Hashtbl.find_opt t.slots slot with
  | Some st -> (st, [])
  | None ->
      (* a follower dragged into a slot by peer traffic: join without a
         preference (the sequencer proposes; we echo and vote) *)
      let st =
        {
          dls = Dls.create (dls_cfg t.cfg);
          opened_at = now;
          proposed = [];
          closed = false;
        }
      in
      Hashtbl.replace t.slots slot st;
      t.open_slots <- t.open_slots + 1;
      if slot >= t.next_slot then t.next_slot <- slot + 1;
      (st, wrap slot (Dls.join st.dls))

let on_msg t ~now ~from_ m =
  let st, join_effs = slot_for t ~now m.slot in
  let effs = wrap m.slot (Dls.on_msg st.dls ~from_ m.dm) in
  join_effs @ effs @ drain_decision t ~now m.slot st

let on_slot_timeout t ~now ~slot ~round =
  match Hashtbl.find_opt t.slots slot with
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
