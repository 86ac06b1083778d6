(** Declarative fault plans.

    A plan is pure data: which links misbehave (drop / duplicate / corrupt,
    with per-mille probabilities), which processes crash and when they
    reboot, which groups of processes are partitioned from each other and
    for how long, and how far the network's GST is jittered. The
    {!Injector} turns a plan plus a seed into concrete, deterministic
    per-send decisions; a plan on its own never rolls a die.

    Plans serialize to a compact one-line grammar, so every chaos run can
    print an exact repro ([--seed N --plan '…']) and every repro replays
    bit-for-bit:

    {v
    drop *>3 0.2; dup 1>* 0.05; corrupt *>* 0.01;
    crash 2@500+800; part 0,1|2,3@200+400; gst+50
    v}

    Clause forms ([SRC]/[DST] are pids or [*], [P] a probability in
    [0..1], times in ticks):

    - [drop SRC>DST P], [dup SRC>DST P], [corrupt SRC>DST P] — per-send
      fault probabilities on matching links; several matching rules
      combine by taking the maximum per kind.
    - [crash PID@AT] / [crash PID@AT+DUR] — the process goes down at [AT];
      with [+DUR] it reboots at [AT+DUR], otherwise it stays down.
    - [part G1|G2|…@AT] / [part …@AT+DUR] — two or more [|]-separated
      groups; while active, sends between {e different} listed groups are
      dropped (pids in no group are unaffected). Each group is a
      comma-separated list of members, where a member is a pid or an
      inclusive range [LO-HI] ([part 0-2|3-5@9] names six pids). A group
      may carry a label, [NAME:MEMBERS] ([part wing_a:0,1|wing_b:2,3@9]);
      names are [[A-Za-z][A-Za-z0-9_]*], distinct within a clause, and
      either every group is named or none is. Ranges are parse-time
      sugar, at most 65536 pids each; names survive the round-trip.
    - [gst+J] — adds [J] ticks to a partially-synchronous network's GST. *)

type link_rule = {
  src : int option;  (** [None] matches any sender *)
  dst : int option;  (** [None] matches any receiver *)
  drop_pm : int;  (** drop probability, per mille (0–1000) *)
  dup_pm : int;  (** duplication probability, per mille *)
  corrupt_pm : int;  (** corruption probability, per mille, per copy *)
}

type crash_spec = {
  pid : int;
  at : Sim.Sim_time.t;
  recover_at : Sim.Sim_time.t option;  (** [None]: down for good *)
}

type partition_spec = {
  groups : int list list;
  gnames : string option list;
      (** optional labels, parallel to [groups]: either [[]] (no group
          named — the canonical form of an unnamed clause) or one entry
          per group. Purely descriptive; never affects semantics. *)
  from_ : Sim.Sim_time.t;
  until_ : Sim.Sim_time.t option;  (** [None]: never heals *)
}

type t = {
  links : link_rule list;
  crashes : crash_spec list;
  partitions : partition_spec list;
  gst_jitter : Sim.Sim_time.t;
}

val none : t
(** The empty plan: reliable channels, no crashes, no partitions. *)

val is_none : t -> bool

val clause_count : t -> int
(** Number of clauses the plan would print: link rules + crashes +
    partitions + one for a positive GST jitter. The per-clause activation
    counters of {!Injector.clause_hits} are indexed in that order. *)

val normalize : t -> t
(** The canonical form the grammar round-trips through: every link rule
    carries exactly one nonzero kind (a combined rule splits into one rule
    per kind, in drop/dup/corrupt order), all-zero rules are dropped, and
    a non-positive GST jitter becomes 0. For any plan that passes
    {!validate}, [of_string (to_string p) = Ok (normalize p)];
    [normalize] is idempotent and never changes injection semantics. *)

val validate : t -> nprocs:int -> (unit, string) result
(** Structural sanity against a concrete process count: pids in range, at
    most one crash per pid, probabilities within [0..1000] and not all
    zero within a rule, non-negative times and jitter, recovery strictly
    after crash, partition heal strictly after start (no zero-duration
    windows), partition groups disjoint and non-empty. *)

val to_string : t -> string
(** The one-line grammar above; [of_string (to_string p)] = [Ok p] up to
    clause order for {!normalize}d plans (and [Ok (normalize p)] in
    general). The empty plan prints as ["none"]. *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit

val random : Sim.Rng.t -> nprocs:int -> horizon:Sim.Sim_time.t -> t
(** A random plausible plan for a system of [nprocs] processes whose
    interesting behaviour happens within [horizon] ticks: up to a few link
    rules (moderate probabilities), up to two crash–recovery schedules,
    at most one partition (two blocks below six processes; two to three
    blocks, sometimes named, from six up), occasional GST jitter.
    Deterministic in the generator state. *)
