(** High-level convenience API.

    One call sets up a payment chain, runs a protocol over it, checks the
    paper's properties, and returns a compact result — the entry point used
    by the examples and the CLI. For full control use {!Protocols.Runner}
    directly; for the reproduction tables use {!Experiments}. *)

type network_choice =
  | Synchronous  (** delays within δ = 100 ticks *)
  | Partially_synchronous of { gst : int }
  | Asynchronous

type result = {
  success : bool;  (** Bob was paid *)
  outcome : Protocols.Runner.outcome;
  report : Props.Verdict.report;
  all_properties_hold : bool;
  terminations : (string * string) list;  (** (participant, outcome tag) *)
  bob_paid_at : int option;  (** global ticks; see {!bob_paid_at} *)
  messages : int;
}

val pay :
  ?hops:int ->
  ?value:int ->
  ?commission:int ->
  ?drift_ppm:int ->
  ?network:network_choice ->
  ?protocol:Protocols.Runner.protocol ->
  ?faults:(int * Protocols.Byzantine.t) list ->
  ?seed:int ->
  unit ->
  result
(** Defaults: 2 hops (one connector), value 1000, commission 10, 1% drift,
    synchronous network, the time-bounded protocol
    ({!Protocols.Runner.Sync_timebound}), no faults, seed 1. *)

val bob_paid_at :
  Protocols.Runner.outcome -> Props.Payment_props.run_view -> int option
(** When Bob terminated paid, in global ticks: the time [xchain pay] and
    the audit headline report as Bob's payout; [None] if he was not paid. *)

val participant_name : Protocols.Runner.outcome -> int -> string
(** "Alice", "Chloe1", "Bob", "e0", "tm0", … *)

val pp_result : Format.formatter -> result -> unit
(** A human-oriented summary: outcome, per-participant terminations,
    property report. *)
