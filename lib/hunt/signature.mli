(** Outcome fingerprints for coverage-guided adversarial search.

    A signature compresses one chaos run into a small, stable key built
    entirely from existing instrumentation:

    - the {!Xchain.Chaos.classification} (safe-commit / safe-abort /
      stuck / safety-violation);
    - the {e set} of failed safety verdicts (sorted property names);
    - a quantized blame histogram — each {!Obsv.Blame} category's share
      of the end-to-end latency bucketed into five levels (absent when
      the run has no blame path, e.g. stuck before any settlement);
    - quantized injection totals per fault kind (drop / dup / corrupt /
      partition, log-ish buckets);
    - a clause-activation profile: how many link rules, crashes,
      recoveries and partitions {e actually fired}
      ({!Faults.Injector.clause_hits}), capped at "several" so the key
      reflects behaviour rather than plan size.

    Two runs with the same signature exercised the system the same way;
    the hunt's corpus keeps one witness per signature, and the shrinker
    minimizes a plan {e subject to the signature being preserved}. The
    whole fingerprint is a pure function of a run's deterministic
    outputs, so signatures are byte-stable across replays and domain
    counts. *)

type t = {
  classification : Xchain.Chaos.classification;
  failed : string list;  (** failed verdict property names, sorted *)
  blame : int array;
      (** 7 share buckets, in the order of {!Obsv.Blame.category}'s
          constructors, or [[||]] when no blame path exists: 0, (0,10%],
          (10,40%], (40,80%], >80% of the latency *)
  injected : int array;
      (** 4 count buckets (0, 1, 2–3, 4–7, 8+): drop, dup, corrupt,
          partition *)
  clauses : int array;  (** fired-clause profile: links, crashes,
                            recoveries, partitions (each 0..2), gst (0/1) *)
  path : int;
      (** path-shape bucket (the count bucket of the run's hop count):
          constant for a fixed-hops hunt, discriminating once topology
          routing mixes path lengths in one corpus *)
  breach : int;
      (** first-breach sim-time bucket from the online monitor
          ([run_result.breach_at]): 0 = never tripped, then log-decade
          buckets (≤100, ≤1k, ≤10k, beyond). Two plans breaking the same
          property at different phases of the run are distinct finds. *)
}

val of_run :
  ?causal:Obsv.Causal.t -> delta:int -> Xchain.Chaos.run_result -> t
(** Fingerprint one run. [causal] must be the recorder the run was
    executed with (its graph supplies the blame decomposition); [delta]
    is the synchrony bound splitting transit from GST wait, as in
    {!Obsv.Blame.attribute}. *)

val to_string : t -> string
(** Compact stable key, e.g. ["stuck||b-|i10010|c10110|p2|t0"]. Corpus
    files and reports key on this string. *)
