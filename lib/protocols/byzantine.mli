(** Byzantine fault strategies.

    The paper assumes "the classic Byzantine model with authentication":
    faulty participants may deviate arbitrarily but cannot forge
    signatures. Each strategy below is a concrete deviation used by the E6
    fault-matrix experiment and the safety property tests; they cover the
    attack surface the paper's properties are stated against:

    - crashes and silence (fail-stop is a special case of Byzantine);
    - money-grabbing escrows (ES / CS under a non-abiding escrow);
    - promise-breaking escrows (premature refund — the behaviour the
      drift-tuned timeouts protect honest escrows from {e accidentally}
      exhibiting);
    - certificate games (forged χ, χ issued early, χ withheld);
    - weak-protocol deviations (impatience, never funding, lying about
      funding).

    A strategy is turned into engine handlers by {!handlers}; the runner
    substitutes them for the honest automaton of the same pid. *)

type t =
  | Crash_at_start  (** never takes a step *)
  | Crash_after_receives of int  (** halts after the k-th delivery *)
  | Mute  (** stays up, reads everything, sends nothing *)
  | Thief_escrow
      (** plays escrow up to the deposit, then releases the funds to its own
          account and goes silent *)
  | Premature_refund_escrow
      (** issues P(a) but refunds immediately, breaking its promise window *)
  | No_resolve_escrow  (** takes the deposit and never resolves it *)
  | Eager_chi_bob  (** issues χ before any promise, then behaves honestly *)
  | Withhold_chi_bob  (** receives P but never issues χ *)
  | Forge_chi_connector
      (** immediately sends a fabricated χ upstream, then plays honestly *)
  | Double_money_customer  (** sends the $ instruction twice *)
  | Impatient of Sim.Sim_time.t
      (** weak protocol: requests abort after the given local delay,
          regardless of progress *)
  | Never_deposit  (** weak protocol: participates but never funds its leg *)
  | False_funded_escrow
      (** weak protocol: reports its leg funded without any deposit *)

val name : t -> string

val handlers :
  Env.t -> ?tms:int array -> pid:int -> t -> (Msg.t, Obs.t) Sim.Engine.handlers
(** Raises [Invalid_argument] if the strategy does not fit the pid's
    role (e.g. [Thief_escrow] anywhere but at an escrow). *)

(** {1 The [--fault] spelling}

    A substitution [(pid, strategy)] is written [STRATEGY@ROLE]: the role
    as {!Topology.role_name} spells it ([alice], [bob], [chloeI], [eI]),
    the strategy as {!name} does, except [crash] for [Crash_at_start]. *)

val spelled : t list
(** The strategies {!fault_of_string} accepts: every parameterless one. *)

val fault_to_string : Topology.t -> int * t -> string

val fault_of_string : Topology.t -> string -> (int * t, string) result
(** The inverse of {!fault_to_string} over the {!spelled} strategies at
    the payment pids whose role they fit. Errors, checked in this
    order: ["fault \"...\" is not strategy@role"], ["unknown role
    \"...\""], ["unknown strategy \"...\""], ["strategy \"...\" does not
    apply to role \"...\""]. An [Ok] substitution is one {!handlers}
    accepts. *)
