open Sim
module E = Engine
module Committee = Quorum.Committee

type config = {
  qs : Quorum_system.t;
  registry : Xcrypto.Auth.registry;
  batch_cap : int;
  pipeline : int;
  base_timeout : Sim_time.t;
  reply_to : int -> int array;
  hops_of : int -> int;
}

let auth_ids cfg = Array.init (Quorum_system.size cfg.qs) (fun k -> k)

let committee_config cfg ~index ~signer =
  {
    Committee.qs = cfg.qs;
    self = index;
    auth_ids = auth_ids cfg;
    registry = cfg.registry;
    signer;
    batch_cap = cfg.batch_cap;
    pipeline = cfg.pipeline;
    base_timeout = cfg.base_timeout;
  }

(* Certificates a verifier remembers as valid. Participants of one batch
   receive the sequencer's certificate value itself, so a few recent
   entries catch nearly every repeat. *)
let memo_size = 16

(* A hit is the same certificate: the physically identical value or one
   equal in every field, every signature included. Verification is a pure
   function of the certificate, so a hit answers as a re-check would.
   [compare] rather than [=]: it stops at physically shared sub-values,
   and a certificate holds no floats. *)
let rec memo_mem memo dc k =
  k < Array.length memo
  &&
  match memo.(k) with
  | Some c -> c == dc || compare c dc = 0 || memo_mem memo dc (k + 1)
  | None -> false

let verify cfg ~signer =
  let check = Committee.verify_cert (committee_config cfg ~index:0 ~signer) in
  let memo = Array.make memo_size None in
  let next = ref 0 in
  fun dc ->
    memo_mem memo dc 0
    || check dc
       && begin
            memo.(!next) <- Some dc;
            next := (!next + 1) mod memo_size;
            true
          end

(* [slot-S-round-R], the label of a slot's round timer, back to (S, R),
   read in place: [label_at] tests for a literal at an index, [digits_end]
   skips a run of decimal digits and [decimal] reads one. *)
let rec label_at label lit at k =
  k >= String.length lit
  || at + k < String.length label
     && label.[at + k] = lit.[k]
     && label_at label lit at (k + 1)

let rec digits_end label at =
  if at < String.length label && label.[at] >= '0' && label.[at] <= '9' then
    digits_end label (at + 1)
  else at

let rec decimal label lo hi acc =
  if lo >= hi then acc
  else decimal label (lo + 1) hi ((acc * 10) + Char.code label.[lo] - 48)

let slot_label slot round =
  String.concat "" [ "slot-"; string_of_int slot; "-round-"; string_of_int round ]

let parse_slot_label label =
  let s_end = digits_end label 5 in
  let r_end = digits_end label (s_end + 7) in
  if
    label_at label "slot-" 0 0
    && s_end > 5
    && label_at label "-round-" s_end 0
    && r_end > s_end + 7
    && r_end = String.length label
  then Some (decimal label 5 s_end 0, decimal label (s_end + 7) r_end 0)
  else None

(* Handlers for committee replica [index]. The replicas are registered as
   one block with a common [base], so intra-committee traffic uses logical
   pids (0 .. size-1) and the engine rebases [src] for us; participants
   outside the block are reached with absolute pids via [reply_to]. The
   replica's committee state is returned alongside so the host can read
   its statistics and forget items whose payments are over. *)
let handlers cfg ~index ~signer =
  let n = Quorum_system.size cfg.qs in
  let com = Committee.create (committee_config cfg ~index ~signer) in
  (* per-item request aggregation (sequencer only): an item's verdict is
     [commit] once every leg reported funded, [abort] on the first abort
     request — the single TM's rule, applied across payments. The first
     verdict submitted wins ({!Committee.request} drops the rest), and an
     item's legs leave the table when its certificate is out. *)
  let legs : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let announce_cert ctx (cert : Committee.batch Consensus.Dls.decision_cert) =
    (* push the batch certificate to every participant of every covered
       item, deduplicated, in batch order — deterministic *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (v : Committee.verdict) ->
        Array.iter
          (fun p ->
            if not (Hashtbl.mem seen p) then begin
              Hashtbl.add seen p ();
              E.send_absolute ctx ~dst:p (Msg.Quorum_decision { cert })
            end)
          (cfg.reply_to v.Committee.item))
      cert.Consensus.Dls.d_value
  in
  let interpret_one ctx eff =
    match eff with
    | Committee.Send { to_; m } -> E.send ctx ~dst:to_ (Msg.Quorum_msg m)
    | Committee.Broadcast m ->
        let msg = Msg.Quorum_msg m in
        for k = 0 to n - 1 do
          E.send ctx ~dst:k msg
        done
    | Committee.Set_slot_timer { slot; round; after } ->
        E.set_timer_after ctx ~after ~label:(slot_label slot round)
    | Committee.Certified { cert; _ } ->
        (* a slot is certified once per replica; only the sequencer
           announces, keeping fan-out O(batch) rather than
           O(batch * committee). Sequencer fail-over is out of scope
           (docs/committees.md). *)
        if index = 0 then begin
          List.iter
            (fun (v : Committee.verdict) ->
              Hashtbl.remove legs v.Committee.item)
            cert.Consensus.Dls.d_value;
          announce_cert ctx cert
        end
  in
  (* most deliveries answer nothing: no closure is built for them *)
  let interpret ctx = function
    | [] -> ()
    | effs -> List.iter (interpret_one ctx) effs
  in
  let submit ctx ~item commit =
    interpret ctx
      (Committee.request com ~now:(E.local_now ctx) { Committee.item; commit })
  in
  let on_request ctx ~item (req : Msg.quorum_req) =
    match Committee.decision_of com ~item with
    | Some d ->
        (* already decided: the requester likely missed the broadcast —
           re-announce the certificate *)
        announce_cert ctx d.Committee.cert
    | None -> (
        match req with
        | Msg.Abort_wanted -> submit ctx ~item false
        | Msg.Leg_funded { escrow_index } ->
            let tbl =
              match Hashtbl.find_opt legs item with
              | Some t -> t
              | None ->
                  let t = Hashtbl.create 4 in
                  Hashtbl.replace legs item t;
                  t
            in
            if not (Hashtbl.mem tbl escrow_index) then begin
              Hashtbl.replace tbl escrow_index ();
              if Hashtbl.length tbl >= cfg.hops_of item then
                submit ctx ~item true
            end)
  in
  ( {
    E.on_start = (fun _ -> ());
    on_receive =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Quorum_req { item; req } ->
            (* requests are content-trusted (benchmark scope); only the
               sequencer aggregates them *)
            if index = 0 && item >= 0 then on_request ctx ~item req
        | Msg.Quorum_msg m ->
            (* intra-block traffic: [src] is already the sender's logical
               replica index *)
            if src >= 0 && src < n then
              interpret ctx
                (Committee.on_msg com ~now:(E.local_now ctx) ~from_:src m)
        | _ -> ());
    on_timer =
      (fun ctx ~label ->
        match parse_slot_label label with
        | Some (slot, round) ->
            interpret ctx
              (Committee.on_slot_timeout com ~now:(E.local_now ctx) ~slot
                 ~round)
        | None -> ());
  },
    com )
