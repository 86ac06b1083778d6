type model =
  | Synchronous of { delta : Sim_time.t }
  | Partially_synchronous of { gst : Sim_time.t; delta : Sim_time.t }
  | Asynchronous of { mean : Sim_time.t; cap : Sim_time.t }

type bounds = { lo : Sim_time.t; hi : Sim_time.t }

type adversary =
  send_time:Sim_time.t ->
  src:int ->
  dst:int ->
  tag:string ->
  bounds:bounds ->
  Sim_time.t option

type copy = Intact | Corrupted

type tamper =
  send_time:Sim_time.t -> src:int -> dst:int -> tag:string -> copy list

(* One int per directed link, [src] in the high half. The table picks a
   bucket from the hash's low bits, so the hash folds the product's high
   bits (where [src] lands) back down: a multiply alone would send every
   link into [dst] to the same few buckets. *)
module Link = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end)

let link_key ~src ~dst =
  if src lor dst < 0 || src lor dst >= 1 lsl 31 then
    invalid_arg "Network: pid out of range";
  (src lsl 31) lor dst

type t = {
  model : model;
  adversary : adversary option;
  tamper : tamper option;
  fifo : bool;
  link_stats : bool;
  settled : bounds;
      (* the envelope of every send but a partially synchronous one
         before GST, built once *)
  rng : Rng.t;
  last_delivery : Sim_time.t Link.t;
  reg : Obsv.Metrics.t;
  link_delay : Obsv.Metrics.histogram Link.t;
  m_adversary : Obsv.Metrics.counter;
  m_adversary_clamped : Obsv.Metrics.counter;
  m_fifo_holds : Obsv.Metrics.counter;
}

let handles =
  Obsv.Metrics.memo @@ fun metrics ->
  ( Obsv.Metrics.counter metrics
      ~help:"Message delays chosen by the adversary and honored as picked"
      "xchain_network_adversary_delays_total",
    Obsv.Metrics.counter metrics
      ~help:"Adversary delay picks overridden by clamping into the model"
      "xchain_network_adversary_clamped_total",
    Obsv.Metrics.counter metrics
      ~help:"Deliveries pushed later to preserve per-link FIFO order"
      "xchain_network_fifo_holds_total" )

let create ?adversary ?tamper ?(fifo = true) ?(link_stats = true)
    ?(metrics = Obsv.Metrics.default) model rng =
  (match model with
  | Synchronous { delta } ->
      if delta < 1 then invalid_arg "Network: delta must be >= 1"
  | Partially_synchronous { delta; _ } ->
      if delta < 1 then invalid_arg "Network: delta must be >= 1"
  | Asynchronous { mean; cap } ->
      if mean < 1 || cap < mean then invalid_arg "Network: bad async params");
  let m_adversary, m_adversary_clamped, m_fifo_holds = handles metrics in
  let settled =
    match model with
    | Synchronous { delta } | Partially_synchronous { delta; _ } ->
        { lo = 1; hi = delta }
    | Asynchronous { cap; _ } -> { lo = 1; hi = cap }
  in
  {
    model;
    adversary;
    tamper;
    fifo;
    link_stats;
    settled;
    rng;
    last_delivery = Link.create 64;
    reg = metrics;
    link_delay = Link.create 64;
    m_adversary;
    m_adversary_clamped;
    m_fifo_holds;
  }

let model t = t.model

(* Only a partially synchronous send before GST gets an envelope of its
   own: delivered by gst + delta at the latest, but it may also arrive
   earlier — partial synchrony places no lower bound before GST. *)
let bounds_at t ~send_time =
  match t.model with
  | Partially_synchronous { gst; delta } when Sim_time.(send_time < gst) ->
      { lo = 1; hi = Sim_time.add (Sim_time.sub gst send_time) delta }
  | Synchronous _ | Partially_synchronous _ | Asynchronous _ -> t.settled

let sample t ~send_time:_ bounds =
  match t.model with
  | Synchronous _ | Partially_synchronous _ ->
      Rng.int_in t.rng ~lo:bounds.lo ~hi:bounds.hi
  | Asynchronous { mean; _ } ->
      let d = Rng.exponential_ticks t.rng ~mean in
      Stdlib.min (Stdlib.max d bounds.lo) bounds.hi

let clamp bounds d = Stdlib.min (Stdlib.max d bounds.lo) bounds.hi

(* The per-link histogram child is resolved once per registry and link
   (every network of a registry shares [link_memo]) and cached per
   network; steady-state cost is one hashtable probe plus the histogram
   store. Label cardinality is links × 1, capped by the registry. *)
module Key_map = Map.Make (Int)

let link_memo = Obsv.Metrics.memo (fun _ -> Atomic.make Key_map.empty)

let link_histogram t ~src ~dst =
  let key = link_key ~src ~dst in
  match Link.find_opt t.link_delay key with
  | Some h -> h
  | None ->
      let h =
        Memo.find_or_add Key_map.find_opt Key_map.add (link_memo t.reg) key
          (fun () ->
            Obsv.Metrics.histogram t.reg
              ~help:"Per-link message delay, in ticks"
              ~labels:[ ("link", Printf.sprintf "%d->%d" src dst) ]
              "xchain_network_delay")
      in
      Link.add t.link_delay key h;
      h

let fate t ~send_time ~src ~dst ~tag =
  match t.tamper with
  | None -> [ Intact ]
  | Some f -> f ~send_time ~src ~dst ~tag

let delivery_time t ~send_time ~src ~dst ~tag =
  let bounds = bounds_at t ~send_time in
  let delay =
    match t.adversary with
    | Some adv -> (
        match adv ~send_time ~src ~dst ~tag ~bounds with
        | Some d ->
            let d' = clamp bounds d in
            (* an out-of-bounds pick was overridden, not honored — count it
               separately so metrics distinguish the two *)
            Obsv.Metrics.inc
              (if d' = d then t.m_adversary else t.m_adversary_clamped);
            d'
        | None -> sample t ~send_time bounds)
    | None -> sample t ~send_time bounds
  in
  let at = Sim_time.add send_time delay in
  let at =
    if not t.fifo then at
    else begin
      let key = link_key ~src ~dst in
      let at' =
        match Link.find t.last_delivery key with
        | prev when Sim_time.(prev > at) ->
            Obsv.Metrics.inc t.m_fifo_holds;
            prev
        | _ -> at
        | exception Not_found -> at
      in
      Link.replace t.last_delivery key at';
      at'
    end
  in
  if t.link_stats then
    Obsv.Metrics.observe (link_histogram t ~src ~dst)
      (Sim_time.sub at send_time);
  at

let forget_link t ~src ~dst = Link.remove t.last_delivery (link_key ~src ~dst)
