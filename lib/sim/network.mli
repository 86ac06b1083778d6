(** Message-delay models and the adversarial scheduler interface.

    The paper's theorems quantify over network behaviours in three classes:

    - {e synchrony}: every message arrives within a known bound δ;
    - {e partial synchrony} (Dwork–Lynch–Stockmeyer): there is an unknown
      Global Stabilisation Time (GST) after which every message — including
      those already in flight — arrives within δ; before GST delays are
      finite but unbounded;
    - {e asynchrony}: delays are finite but unbounded, with no GST.

    A {!t} turns each send into a concrete delay, either by sampling within
    the model's envelope or by delegating to an {e adversary} that may pick
    any delay the model permits. Channels are reliable and FIFO-preserving
    per (src, dst) pair when [fifo] is set. *)

type model =
  | Synchronous of { delta : Sim_time.t }
      (** Delivery within [\[1, delta\]] ticks of the send. *)
  | Partially_synchronous of { gst : Sim_time.t; delta : Sim_time.t }
      (** Delivery by [max (send + delta) (gst + delta)]; after GST the bound
          is δ. The GST is part of the schedule, not known to processes. *)
  | Asynchronous of { mean : Sim_time.t; cap : Sim_time.t }
      (** No bound known to processes; simulated delays are roughly
          exponential with the given mean, hard-capped at [cap] so runs are
          finite. *)

type bounds = { lo : Sim_time.t; hi : Sim_time.t }
(** The envelope within which a delay for a given send must fall. *)

type adversary =
  send_time:Sim_time.t ->
  src:int ->
  dst:int ->
  tag:string ->
  bounds:bounds ->
  Sim_time.t option
(** An adversary inspects a send (identified by its [tag], a protocol-chosen
    message label) and may return a delay. A returned delay is clamped into
    [bounds] — the adversary can never violate the model, only exploit it.
    [None] falls back to random sampling. *)

type copy = Intact | Corrupted
(** One scheduled delivery of a send. [Corrupted] copies reach the engine,
    which damages (or, lacking a mangler, discards) the payload. *)

type tamper =
  send_time:Sim_time.t -> src:int -> dst:int -> tag:string -> copy list
(** A fault injector inspects a send and decides which copies of it the
    network will carry: [[]] drops the message, [[Intact]] is a faithful
    channel, two elements duplicate the send, [Corrupted] elements are
    damaged in flight. Unlike the {!adversary} (which can only stretch
    time within the model), a tamper hook makes channels {e unreliable} —
    it exists for the fault-injection subsystem ({!Faults}) and steps
    outside the paper's reliable-channel assumption by design. *)

type t

val create :
  ?adversary:adversary -> ?tamper:tamper -> ?fifo:bool -> ?link_stats:bool ->
  ?metrics:Obsv.Metrics.t -> model -> Rng.t -> t
(** [fifo] (default [true]) enforces per-channel FIFO by never letting a
    later send on the same (src, dst) pair overtake an earlier one.

    [tamper] (default: none — reliable channels) decides drops, duplicates
    and corruption per send; see {!tamper}.

    [link_stats] (default [true]) records the per-link delay histogram
    below. Load runs multiplexing thousands of payments disable it: one
    histogram child per (src, dst) pair is unbounded label cardinality
    when every payment gets its own pid block.

    [metrics] (default {!Obsv.Metrics.default}) receives a per-link
    [xchain_network_delay] histogram (label [link="src->dst"]) plus the
    [xchain_network_adversary_delays_total],
    [xchain_network_adversary_clamped_total] and
    [xchain_network_fifo_holds_total] counters. *)

val model : t -> model

val fate : t -> send_time:Sim_time.t -> src:int -> dst:int -> tag:string ->
  copy list
(** The copies the network will actually carry for this send —
    [[Intact]] unless a [tamper] hook was installed. The engine calls this
    once per send, then {!delivery_time} once per surviving copy. *)

val delivery_time : t -> send_time:Sim_time.t -> src:int -> dst:int ->
  tag:string -> Sim_time.t
(** The absolute global time at which this send will be delivered. *)

val forget_link : t -> src:int -> dst:int -> unit
(** Drops the FIFO state of the directed link [src -> dst], so a run that
    retires processes keeps state only for links that can still carry a
    message. Call it once no later send will use the link: a later send
    on it would no longer be held behind earlier ones. Other links keep
    their clamps unchanged. *)
