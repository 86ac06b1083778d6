(** Domain-parallel execution of batches of independent deterministic jobs.

    A {e job} is a pure function of its integer id: it builds everything it
    needs from scratch (one fresh [Engine], its own [Rng] seeded from the
    id) and shares no mutable state with other jobs. Under that contract,
    {!run} distributes jobs over a fixed pool of OCaml 5 domains and
    returns results {e merged in job-id order}, so the result array — and
    anything printed from it — is byte-identical for any domain count.
    That determinism contract is load-bearing: the cram suite and CI
    compare [-j 1] output against [-j N] output with [cmp].

    Scheduling is chunked work-sharing: domains claim fixed-size slices of
    the job space off one atomic counter, so slice boundaries depend only
    on [jobs] and [chunk], never on the number of domains or on timing. A
    domain that finishes its slice early steals the next unclaimed slice.

    Failure isolation: a job that raises becomes an [Error] {!failure}
    carrying its job id, exception text and backtrace — the batch always
    completes and every other result is preserved. Nothing escapes {!run}
    except [Invalid_argument] on bad arguments.

    What is {e not} deterministic: {!stats} and the {!cost} it carries.
    Wall-clock time, per-domain job counts, busy times and allocation
    depend on scheduling. Deterministic reports keep them out, bar the
    one strippable trailing member {!timing_json} writes. *)

type failure = {
  job : int;  (** id of the job that raised *)
  message : string;  (** [Printexc.to_string] of the exception *)
  backtrace : string;  (** raw backtrace; [""] unless recording is on *)
}

type 'a outcome = ('a, failure) result

type cost = {
  wall_ns : int;  (** host wall-clock nanoseconds of the window, ≥ 1 *)
  domains : int;  (** domains that ran it: 1 for a single run *)
  minor_words : int;  (** allocated; for a batch, the sum over its jobs *)
  promoted_words : int;
      (** minor-heap words that survived a minor collection, counted as
          [minor_words] is: for a batch, the sum over its jobs, each on
          the domain that ran it *)
  top_heap_words : int;
      (** the window's peak major heap: the largest heap size the runtime
          reported at the end of a major cycle in the window or at its
          close; never 0 *)
}
(** A run's host cost: every nondeterministic figure a report carries. *)

type stats = {
  jobs : int;
  failed : int;  (** number of [Error] outcomes *)
  chunk : int;  (** slice size used *)
  per_domain_jobs : int array;  (** jobs completed, indexed by domain *)
  per_domain_chunks : int array;  (** slices claimed, indexed by domain *)
  per_domain_busy_ns : int array;  (** time spent inside jobs, per domain *)
  cost : cost;  (** its domains are those used (≤ requested; ≤ jobs) *)
}

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism the
    runtime suggests. *)

val default_domains : unit -> int
(** Domain count used when [?domains] is omitted: the [XCHAIN_FLEET_JOBS]
    environment variable if set to a positive integer, otherwise
    {!recommended_domains}. The env override is how CI re-runs the whole
    test suite single-domain and max-domain without touching flags. *)

val run :
  ?domains:int ->
  ?chunk:int ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  ?metrics:Obsv.Metrics.t ->
  jobs:int ->
  (int -> 'a) ->
  'a outcome array * stats
(** [run ~jobs f] evaluates [f 0 .. f (jobs-1)] across
    [?domains] (default {!default_domains}) domains and returns the
    outcomes in job-id order plus batch stats.

    [?chunk] (default [max 1 (jobs / (domains * 8))]) is the slice size;
    it affects scheduling granularity only, never results. [?on_progress]
    is called from the calling domain only, with monotonically
    non-decreasing [completed] counts, and exactly once with
    [completed = total] at the end (including when [jobs = 0]).
    Per-batch fleet metrics (jobs by status, steals, busy/idle time per
    domain) are recorded into [?metrics] (default
    [Obsv.Metrics.default]) after the batch completes.

    Raises [Invalid_argument] if [jobs < 0], [domains < 1] or
    [chunk < 1]. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds (from [Unix.gettimeofday]); the clock used for
    {!stats} timing, exposed so callers report durations consistently. *)

val measure : (unit -> 'a) -> 'a * cost
(** [measure f] is [f ()] and its {!cost} on the calling domain. An
    exception of [f] passes through, and the window it opened is
    closed. *)

val no_cost : cost
(** The unit of {!add_cost}. *)

val add_cost : cost -> cost -> cost
(** Two batches run one after the other: wall times, minor and promoted
    words add, domains and top heap take the max. *)

val timing_json : events:int -> cost -> string
(** The one writer of a report's flat, trailing [,"timing":{...}] member
    (docs/observability.md), with [events] the report's own deterministic
    event count. *)
