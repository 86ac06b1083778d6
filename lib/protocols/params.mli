(** Derivation of the protocol's timeout parameters — the "fine-tuning to
    work correctly in the presence of clock drift" of Theorem 1.

    The brief announcement leaves the values of the d{_i} and a{_i} as
    parameters "calculated in [the full version]". This module performs that
    calculation for our synchrony model:

    - every message is delivered within [delta] ticks of real time;
    - every local computation before a send takes at most [sigma] ticks;
    - every local clock rate lies in [1 ± drift_ppm·10⁻⁶] of real time.

    Write [up x] for x·(1+ρ) rounded up (a real-time duration measured on a
    fast local clock) and [down x] for x/(1−ρ) rounded up (the real time a
    local-clock window may last on a slow clock). One hop's worst real cost
    is [step = sigma + delta].

    The certificate χ must reach escrow e{_i} before its local window a{_i}
    expires. Working backwards from Bob:

    - [a(n-1) ≥ up (2·step + margin)] — P(a{_{n-1}}) travels to Bob and χ
      travels back;
    - [a(i) ≥ up (5·step + down (a(i+1)) + margin)] for i < n−1 — P(a{_i})
      reaches Chloe{_{i+1}}, who may still be waiting for her G(d{_{i+1}})
      (one extra step), pays escrow e{_{i+1}}, which holds its window open
      for up to [down a(i+1)] real ticks before releasing χ, which then
      makes two more hops back to e{_i}.

    The refund promise follows as [d(i) = a(i) + up sigma + margin]: an
    abiding escrow resolves (either way) within its own a{_i} window plus
    one computation, so G(d{_i}) is honourable — which is what property C
    requires of it.

    {!check} verifies the recurrence; property tests assert that derived
    parameters make strong liveness hold on every conforming schedule, and
    that they are tight enough for E9's naive baseline to fail under the
    same schedules. *)

type input = {
  hops : int;  (** number of escrows n ≥ 1 *)
  delta : Sim.Sim_time.t;  (** message-delay bound δ *)
  sigma : Sim.Sim_time.t;  (** computation-time bound σ *)
  drift_ppm : int;  (** clock-rate envelope ρ, in parts per million *)
  margin : Sim.Sim_time.t;  (** slack added at every level; ≥ 1 *)
}

type t = {
  input : input;
  a : Sim.Sim_time.t array;  (** acceptance windows a{_0} … a{_{n-1}} *)
  d : Sim.Sim_time.t array;  (** refund promises d{_0} … d{_{n-1}} *)
  epsilon : Sim.Sim_time.t;  (** payout promptness ε in P(a) *)
  horizon : Sim.Sim_time.t;
      (** global-time bound by which every honest participant has
          terminated when all escrows abide — the "a priori known period"
          of property T *)
  customer_bound : Sim.Sim_time.t array;
      (** [customer_bound.(i)] is the per-customer a-priori bound for
          c{_i} (length hops+1): money reaches e{_i} within (3+2i) steps,
          the escrow resolves within its (drift-stretched) window, and the
          reply makes one more hop. Bob's entry covers the full forward
          path. Each is ≤ {!horizon}. *)
}

val default_input : hops:int -> input
(** δ = 100, σ = 10, drift 10 000 ppm (1%), margin = 5. *)

val derive : input -> t

val up : drift_ppm:int -> Sim.Sim_time.t -> Sim.Sim_time.t
(** Multiply by (1+ρ), rounding up. *)

val check : t -> (unit, string) result
(** Re-verifies the recurrence inequalities on a parameter vector (possibly
    hand-modified by a test). *)

val scale_windows : t -> num:int -> den:int -> t
(** Scale every a{_i} and d{_i} by num/den — used by E2 to build the family
    of too-short/too-long timeout candidates. *)

val pp : Format.formatter -> t -> unit
