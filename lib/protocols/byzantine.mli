(** Byzantine fault strategies.

    The paper assumes "the classic Byzantine model with authentication":
    faulty participants may deviate arbitrarily but cannot forge
    signatures. The strategies below, used by the E6 fault matrix and the
    safety tests, cover the attack surface the paper's properties are
    stated against: crashes and silence, money-grabbing and
    promise-breaking escrows, certificate games (χ forged, early or
    withheld) and weak-protocol deviations (impatience, never funding,
    lying about funding).

    A deviant is defined by the protocol it departs from: every strategy
    but crash and mute is an {e edit} of the pid's honest automaton in the
    run's template ({!Anta.Automaton.rebuild}). A {e stall} is a state
    with no branch, where the deviant waits forever, arming no timer. A
    strategy fits a pid where its edit finds its states; crash and mute
    run no automaton ([Sim.Engine.silent]) and fit any pid, TM replicas
    included. *)

type t =
  | Crash_at_start  (** never takes a step *)
  | Mute  (** stays up, reads everything, sends nothing *)
  | Thief_escrow
      (** an escrow's [await_money] deposit branch also pays the deposit
          to the escrow itself, then stalls *)
  | Premature_refund_escrow
      (** [send_p] goes on to [refund]: P(a) broken as soon as issued *)
  | No_resolve_escrow  (** [await_chi] stalls: the deposit is never resolved *)
  | Eager_chi_bob  (** [send_chi] is initial: χ before any promise, then a stall *)
  | Withhold_chi_bob  (** [send_chi] stalls: P received, χ never issued *)
  | Forge_chi_connector
      (** first a χ forged in Bob's name to the escrow [await_p] hears P
          from, then a stall *)
  | Double_money_customer  (** first the [send_money] send twice, then a stall *)
  | Impatient of Sim.Sim_time.t
      (** the initial state's [patience] branch, re-armed as the
          [impatience] timer at this offset from birth, then a stall *)
  | Never_deposit  (** every [deposit] timer branch removed *)
  | False_funded_escrow
      (** first an unfunded leg's report to every TM its [report] states
          address, then a stall *)

val name : t -> string

val silent : t -> bool
(** Crash and mute: the pid runs [Sim.Engine.silent], no automaton. *)

val deviate :
  Env.t ->
  ('i, Msg.t, Obs.t) Anta.Automaton.t array ->
  (int * t) list ->
  ('i, Msg.t, Obs.t) Anta.Automaton.t array
(** [deviate env template faults] is [template] with each faulty pid's
    automaton replaced by its edit, built for [env]'s run: the template
    itself, uncopied, when no strategy edits. Raises [Invalid_argument]
    if an edit does not fit its pid. *)

(** {1 The [--fault] spelling}

    A substitution [(pid, strategy)] is written [STRATEGY@ROLE]: the role
    as {!Topology.role_name} spells it ([alice], [bob], [chloeI], [eI]),
    the strategy as {!name} does, except [crash] for [Crash_at_start]. *)

val spelled : t list
(** The strategies {!fault_of_string} accepts: every parameterless one. *)

val fault_to_string : Topology.t -> int * t -> string

val fault_of_string :
  Topology.t ->
  ('i, Msg.t, Obs.t) Anta.Automaton.t array ->
  string ->
  (int * t, string) result
(** The inverse of {!fault_to_string} over the {!spelled} strategies at
    the payment pids they fit in the given template. Errors, checked in
    this order: ["fault \"...\" is not strategy@role"], ["unknown role
    \"...\""], ["unknown strategy \"...\""], ["strategy \"...\" does not
    apply to role \"...\""]. An [Ok] substitution is one {!deviate}
    accepts. *)
