(** Coverage-guided adversarial schedule hunting.

    Where {!Xchain.Chaos.soak} samples fault plans uniformly, the hunt
    {e searches}: it keeps a corpus of one witness plan per distinct
    outcome {!Signature.t}, and spends its budget mutating corpus
    members ({!Mutate.mutate}) toward signatures it has not seen yet.

    Structure of one hunt:

    + {b Generation 0} replays the uniform soak stream exactly (run [i]
      draws its plan from [seed + i + 7919] alone), so the hunt's early
      discoveries coincide with the soak's and the comparison against a
      uniform baseline is apples-to-apples.
    + Each later generation drafts [gen_size] candidates on the calling
      domain — usually a mutation of a random corpus member, 1-in-10 a
      fresh random plan — and evaluates them fleet-parallel. Runs whose
      signature is new enter the corpus.
    + Every {e stuck} or {e safety-violation} witness is then minimized
      ({!Shrink.shrink}) to a smallest plan with the same signature,
      and its one-line repro re-emitted.

    Candidate plans are drafted sequentially between fleet batches and
    every run is a pure function of [(run seed, plan)], so the whole
    report — corpus, signatures, repros — is byte-identical for any
    domain count; only the trailing timing block of the JSON report
    varies. *)

type entry = {
  gen : int;  (** generation that discovered this signature *)
  index : int;  (** global run index within the hunt *)
  seed : int;  (** run seed ([root seed + index]) *)
  plan : Faults.Fault_plan.t;
  classification : Xchain.Chaos.classification;
  signature : string;  (** {!Signature.to_string} key *)
  fired : int array;  (** per-clause activation counts for [plan] *)
  mutable shrunk : (Faults.Fault_plan.t * int) option;
      (** minimized plan and shrink-replay count, for stuck / violating
          witnesses when shrinking is on *)
}

type gen_stat = { gen : int; runs : int; novel : int }

type report = {
  budget : int;
  gen_size : int;
  hops : int;
  protocol : Protocols.Proto.t;
  seed : int;
  generations : gen_stat list;
  corpus : entry list;  (** one witness per signature, discovery order *)
  signatures : int;
  uniform_signatures : int;
      (** distinct signatures of a uniform sweep at the same budget and
          root seed; [-1] when the baseline was not requested *)
  commits : int;
  aborts : int;
  stuck : int;
  violations : int;
  shrink_trials : int;
  events : int;  (** engine events across hunt runs (deterministic;
                     excludes baseline and shrink replays) *)
  cost : Fleet.cost;
      (** the hunt runs' batches ({!Fleet.add_cost}), the window [events]
          counts: the baseline sweep and shrink replays are in neither —
          nondeterministic, keep out of byte-compared output *)
}

val hunt :
  ?hops:int ->
  ?protocol:Protocols.Proto.t ->
  ?gen_size:int ->
  ?domains:int ->
  ?baseline:bool ->
  ?shrink:bool ->
  ?max_shrink_trials:int ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  budget:int ->
  seed:int ->
  unit ->
  report
(** [hunt ~budget ~seed ()] runs [budget] chaos executions (default:
    2 hops, sync protocol, generations of [gen_size = 50]).
    [baseline] additionally runs the uniform sweep at the same budget
    and fills [uniform_signatures]. [shrink] (default [true]) minimizes
    interesting witnesses; [max_shrink_trials] caps replays per witness.
    [on_progress] reports hunt runs completed (out of [budget]) from the
    calling domain. Raises [Invalid_argument] on non-positive [budget]
    or [gen_size]. *)

val repro_lines : report -> string list
(** Repro lines for every stuck / violating corpus entry. *)

val pp_report : Format.formatter -> report -> unit
(** Summary counts, then a repro line per interesting witness. Never
    prints timing. *)

val report_to_json : report -> string
(** The hunt as one JSON object. Deterministic except the trailing
    ["timing"] block — strip it (scripts/strip_timing.py) before
    byte-comparing across domain counts. *)

val corpus_to_jsonl : report -> string
(** One JSON object per corpus entry, one per line, discovery order. *)
