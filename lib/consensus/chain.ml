type round = int

type 'tx block = {
  height : int;
  round : round;
  proposer : int;
  txs : 'tx list;
}

type 'tx msg = Submit of 'tx | Announce of 'tx block

type ('tx, 'ev) effect =
  | Broadcast of 'tx msg
  | Set_round_timer of { round : round; after : Sim.Sim_time.t }
  | Emit of 'ev list

type ('tx, 'st, 'ev) config = {
  n : int;
  self : int;
  block_interval : Sim.Sim_time.t;
  initial_state : 'st;
  apply : 'st -> 'tx -> 'st * 'ev list;
  tx_key : 'tx -> string;
}

type ('tx, 'st, 'ev) t = {
  cfg : ('tx, 'st, 'ev) config;
  mutable state : 'st;  (* the contract after the accepted blocks *)
  applied : (string, unit) Hashtbl.t;  (* keys of the txs in the chain *)
  mutable mempool : 'tx list;  (* oldest first *)
  mutable round : round;
  mutable nheight : int;
  mutable future : 'tx block list;  (* blocks that arrived ahead of us *)
}

let create cfg =
  if cfg.n < 1 then invalid_arg "Chain.create: need a validator";
  if cfg.self < 0 || cfg.self >= cfg.n then invalid_arg "Chain.create: bad self";
  if Sim.Sim_time.(cfg.block_interval < 1) then
    invalid_arg "Chain.create: block_interval must be positive";
  {
    cfg;
    state = cfg.initial_state;
    applied = Hashtbl.create 16;
    mempool = [];
    round = 0;
    nheight = 0;
    future = [];
  }

let proposer_of t height = ((height mod t.cfg.n) + t.cfg.n) mod t.cfg.n

let in_chain t tx = Hashtbl.mem t.applied (t.cfg.tx_key tx)

let known t tx =
  let key = t.cfg.tx_key tx in
  Hashtbl.mem t.applied key
  || List.exists (fun m -> t.cfg.tx_key m = key) t.mempool

let arm_round t round =
  Set_round_timer { round; after = t.cfg.block_interval }

(* Propose a block if we lead the current height. Empty blocks are
   skipped — the chain only grows when there is work, which keeps
   simulated runs quiescent. *)
let maybe_propose t =
  if proposer_of t t.nheight = t.cfg.self && t.mempool <> [] then
    let block =
      {
        height = t.nheight;
        round = t.round;
        proposer = t.cfg.self;
        txs = t.mempool;
      }
    in
    [ Broadcast (Announce block) ]
  else []

let start t = arm_round t 0 :: maybe_propose t

(* Apply a freshly accepted block's transactions to the replicated state,
   collecting contract events: a transaction already in the chain is
   skipped, so hosts receive each event exactly once. *)
let accept t block =
  let fresh = List.filter (fun tx -> not (in_chain t tx)) block.txs in
  let events =
    List.concat_map
      (fun tx ->
        let st, evs = t.cfg.apply t.state tx in
        t.state <- st;
        evs)
      fresh
  in
  List.iter (fun tx -> Hashtbl.replace t.applied (t.cfg.tx_key tx) ()) fresh;
  t.mempool <- List.filter (fun tx -> not (in_chain t tx)) t.mempool;
  t.nheight <- t.nheight + 1;
  (* a block ends the current round: re-arm from the new height *)
  t.round <- t.round + 1;
  let effs = [ arm_round t t.round ] in
  let effs = if events = [] then effs else Emit events :: effs in
  effs @ maybe_propose t

(* A block can arrive before its predecessor (announcements travel on
   different channels); buffer it and retry after every acceptance. *)
let rec drain_future t acc =
  match
    List.partition (fun (b : 'tx block) -> b.height = t.nheight) t.future
  with
  | [], _ -> acc
  | ready :: _, rest ->
      t.future <- rest;
      if proposer_of t ready.height = ready.proposer && ready.txs <> [] then
        drain_future t (acc @ accept t ready)
      else drain_future t acc

let on_msg t ~from_ msg =
  match msg with
  | Submit tx ->
      if known t tx then []
      else begin
        t.mempool <- t.mempool @ [ tx ];
        (* a leader with work need not wait for its round tick *)
        maybe_propose t
      end
  | Announce block -> (
      match from_ with
      | None -> [] (* blocks must come from validators *)
      | Some v ->
          if v <> block.proposer then []
          else if block.height > t.nheight then begin
            t.future <- t.future @ [ block ];
            []
          end
          else if
            block.height = t.nheight
            && proposer_of t block.height = block.proposer
            && block.txs <> []
          then begin
            let effs = accept t block in
            drain_future t effs
          end
          else [])

let on_round_timeout t round =
  if round <> t.round then [] (* stale: a block already advanced us *)
  else begin
    t.round <- t.round + 1;
    arm_round t t.round :: maybe_propose t
  end
