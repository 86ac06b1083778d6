(** Monitors for the cross-chain payment properties of Definitions 1 and 2.

    A {!run_view} judges a {!Protocols.Runner.outcome} (trace, folded by
    {!Payment_fold}, + final ledgers + fault roster); its payment-level
    checks are {!Payment_fold}'s. Conditional properties ("provided her
    escrows abide…") become {e inapplicable} rather than failing when their
    hypotheses are not met, mirroring the paper's statements exactly.

    The money accounting uses each customer's {e net position}: the sum,
    over the escrows where she holds accounts, of (final − initial)
    balance. A refunded payer nets 0; a paid-through connector nets her
    commission; Alice nets −amounts₀ exactly when her payment went through.

    "Upon termination" clauses bind at the participant's [Terminated]
    observation; a participant that never terminates is caught by T, not by
    CS — as in the paper, where CS constrains terminal states and T
    guarantees reaching one. *)

type run_view = {
  outcome : Protocols.Runner.outcome;
  byzantine : int -> bool;  (** pid was fault-substituted *)
  terminated : int -> (Sim.Sim_time.t * string) option;
  net : int -> int;  (** customer net position, see above *)
  judge : Payment_fold.judge;  (** honest = not [byzantine]; book [net] *)
}

val view : Protocols.Runner.outcome -> run_view
(** Folds the outcome's finished trace once: the outcome of
    {!Protocols.Runner.run}, which keeps every entry (a
    {!Protocols.Runner.run_live} outcome keeps none; judge it by its
    {!live_view}). *)

val live_view : Protocols.Runner.outcome -> run_view
(** For a run that has not started (the runner's [on_ready] hook): a
    {!Sim.Trace.on_record} hook feeds the fold as the run records, so a
    check over the view reads the current state in O(pids). *)

val check :
  ?time_bounded:bool -> ?patience_sufficient:bool -> run_view -> Verdict.report
(** The run's Definition ({!Payment_fold.definition}) in full:
    {!check_def1} with [time_bounded], or {!check_def2} with
    [patience_sufficient] (both default false). *)

(** {1 Definition 1 — (time-bounded / eventually terminating) protocol} *)

val check_es : run_view -> Verdict.t
(** No honest escrow lost money: its own account did not go negative, its
    book audits (conservation + single resolution). *)

val check_def1 : time_bounded:bool -> run_view -> Verdict.report
(** C, T, ES, CS1, CS2, CS3, L; C and CS1–CS3 are {!Payment_fold}'s. T:
    termination for every honest customer whose escrows abide and who
    made a payment or issued a certificate; with [time_bounded], by the
    derived horizon (global time — the a-priori known period). L (strong
    liveness): with no faults at all, Bob was paid. *)

(** {1 Definition 2 — weak liveness guarantees} *)

val check_def2 : patience_sufficient:bool -> run_view -> Verdict.report
(** C, CC, T, ES, CS1w, CS2w, CS3, Lw; all but T, ES and Lw are
    {!Payment_fold}'s. T here is eventual termination of honest customers
    whose escrows abide (under a correct TM). Lw (weak liveness) applies
    only when all abide {e and} [patience_sufficient]; then Bob must have
    been paid. *)

(** {1 Helpers for experiments} *)

val bob_paid : run_view -> bool
val money_conserved : run_view -> bool
(** Global conservation across all books. *)

val lock_time : run_view -> Sim.Sim_time.t
(** Total time deposits spent unresolved, summed over escrows — the
    griefing-exposure metric of E5. *)
