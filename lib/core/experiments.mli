(** The reproduction harness: one experiment per claim of the paper.

    The brief announcement has no numbered evaluation tables — its results
    are theorems and protocol properties. DESIGN.md §3 maps each claim to
    an experiment below; running every experiment (see [bench/main.ml] or
    the [xchain] CLI) regenerates the full set of tables recorded in
    EXPERIMENTS.md.

    Each experiment takes [~quick] (CI-sized samples) or full samples, and
    is deterministic for a given [seed]: tables are exactly reproducible. *)

type scale = Quick | Full

val e1_theorem1 : scale -> Table.t
(** Thm 1: under synchrony, the drift-tuned protocol satisfies all of
    C, T(bounded), ES, CS1–CS3, L across hops × drift × random schedules. *)

val e2_impossibility : scale -> Table.t
(** Thm 2: under partial synchrony, every finite-timeout tuning of the
    universal protocol is broken by an adversarial schedule, and the
    no-timeout variant never terminates in bounded time — the dichotomy at
    the heart of the impossibility proof, exhibited mechanically. *)

val e3_weak_protocol : scale -> Table.t
(** Thm 3: the weak protocol satisfies Def. 2 under partial synchrony,
    across hops × GST × TM kinds. *)

val e4_patience_sweep : scale -> Table.t
(** Weak liveness is conditional on patience: success rate vs patience
    under randomized GST — the paper's "wait sufficiently long". *)

val e5_scaling : scale -> Table.t
(** Cost scaling in the chain length: messages, latency to Bob, total
    value-lock time; sync protocol vs HTLC vs weak protocol. *)

val e6_fault_matrix : scale -> Table.t
(** Per-role Byzantine strategies vs the Def. 1 / Def. 2 properties: which
    guarantees survive (all applicable ones must). *)

val e7_deals : scale -> Table.t
(** §5: HLS timelock & certified-blockchain protocols on well-formed and
    non-well-formed deals. *)

val e8_tm_committee : scale -> Table.t
(** TM instantiations: single party vs notary committees with crash /
    equivocation faults under partial synchrony; agreement, CC, latency. *)

val e9_drift : scale -> Table.t
(** The fine-tuning claim: violation rate of the drift-blind universal
    protocol vs the tuned protocol as drift grows. *)

val e10_embedding : scale -> Table.t
(** §5: payments are not deals and deals are not payments — two mechanical
    counterexamples. *)

val e11_atomic_vs_weak : scale -> Table.t
(** Prior-work ablation: the Interledger atomic protocol (fixed notary
    deadline) vs the weak protocol (customer-controlled patience) as GST
    grows — "prior to this work, cross-chain payment problems did not
    require this success". Both stay safe; only the weak protocol keeps
    succeeding. *)

val e12_exhaustive_corners : ?domains:int -> scale -> Table.t
(** Small-scope exhaustive verification: every extremal delay × clock-rate
    corner of 1-hop (and, at full scale, 2-hop) payments. The drift-tuned
    protocol must be clean on all corners; the drift-blind baseline fails
    on concrete witnessed corners. The corner sweep shards over [?domains]
    fleet domains (default {!Fleet.default_domains}); the table is
    byte-identical at any domain count. *)

val e13_partition_sweep : scale -> Table.t
(** Partition tolerance of the committee TM: a 2|2 split of the f=1
    committee (no 3-replica quorum) swept over partition onset × heal
    time. Def. 2 safety must hold in every cell; Bob's success degrades
    exactly where the outage window swallows the patience budget. *)

val e14_quorum_partitions : scale -> Table.t
(** E13 generalized to the quorum-system zoo: one unhealed named
    multi-block partition per row over majority, weighted, and grid
    systems. A block keeps deciding iff it contains a full quorum of its
    family, so the same headcount split saves one family and strands
    another; safety holds in every cell regardless. *)

val all : ?domains:int -> scale -> Table.t list
(** Every experiment, in order. [?domains] is forwarded to the sweeps
    that shard over the fleet (currently {!e12_exhaustive_corners}). *)

val by_name : string -> (scale -> Table.t) option
(** Lookup "e1" … "e14". *)

val names : string list
