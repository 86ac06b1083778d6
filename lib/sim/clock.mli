(** Drifting local clocks.

    The paper's synchrony assumption bounds clock {e drift}: each
    participant's hardware clock advances at a rate within a known envelope
    of real time. We model a clock as an affine map from global (real,
    simulator) time to local time with an exact rational rate:

    [local(g) = l0 + floor ((g - g0) * num / den)]

    Rates are rationals so that round-tripping between local deadlines and
    global wake-up times is exact — no float drift on top of modelled
    drift. A drift bound ρ (in parts-per-million of rate deviation)
    constrains [num/den ∈ [den-ρppm, den+ρppm]/den]. *)

type t

val perfect : t
(** Rate exactly 1, offset 0: local time equals global time. *)

val create : ?l0:Sim_time.t -> ?g0:Sim_time.t -> num:int -> den:int -> unit -> t
(** A clock with rational rate [num/den] (both positive), reading [l0] at
    global time [g0]. *)

val random : Rng.t -> drift_ppm:int -> t
(** A clock whose rate is uniform in [1 ± drift_ppm·10⁻⁶] with a random
    initial offset in [\[0, 1000\]] ticks. [drift_ppm] may be 0. *)

val draw : Rng.t -> drift_ppm:int -> int array -> int -> unit
(** [draw rng ~drift_ppm a i] takes from [rng] exactly the draws
    {!random} takes, in its order, and stores them flat: the rate's
    numerator at [a.(i)] and the initial offset at [a.(i + 1)]. *)

val of_draw : int array -> int -> l0:Sim_time.t -> g0:Sim_time.t -> t
(** The clock at the rate {!draw} stored at [a.(i)], reading [l0] at
    global time [g0]: with [~l0:a.(i + 1) ~g0:0] it is the clock {!random}
    makes from the same draws. *)

val local_of_global : t -> Sim_time.t -> Sim_time.t
(** Read the clock at a global instant. Monotone and total. *)

val global_of_local : t -> Sim_time.t -> Sim_time.t
(** [global_of_local c l] is the earliest global time [g] with
    [local_of_global c g >= l] — the correct wake-up instant for a local
    deadline [l]. Returns {!Sim_time.infinity} if the deadline was set to
    infinity. *)
