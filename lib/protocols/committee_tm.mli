(** Engine host for a {e shared} batching notary committee
    ({!Quorum.Committee}) serving many concurrent payments.

    Unlike the per-payment committee of {!Weak_protocol.Committee} (3f+1
    fresh notaries per payment), one shared committee block decides the
    fate of every in-flight payment, batching verdicts into certificates
    of up to [batch_cap] items and pipelining slots so certificate
    throughput stays flat as committee size grows.

    Wiring (done by [Traffic.Load] in its shared-committee mode):
    - the committee replicas form one engine block with a common [base];
      intra-committee consensus traffic uses logical pids;
    - payments run {!Weak_protocol} with [tm = Shared]: escrows and
      customers address {!Msg.Quorum_req} to the sequencer's absolute
      pid, and verify the returned {!Msg.Quorum_decision} batch
      certificates locally;
    - the sequencer (replica 0) aggregates requests per item — commit
      once all [hops_of item] legs report funded, abort on the first
      abort request — and announces each certified batch to the
      participants of its items, via [reply_to].

    Requests are content-trusted (honest-participant benchmark scope);
    the batch certificate is the cryptographic interface. Sequencer
    fail-over is out of scope — see [docs/committees.md]. *)

type config = {
  qs : Quorum_system.t;  (** must pass [Quorum_system.validate] *)
  registry : Xcrypto.Auth.registry;
      (** the committee's own registry; replica auth ids are the replica
          indices [0 .. size-1] *)
  batch_cap : int;  (** max verdicts per certificate; >= 1 *)
  pipeline : int;  (** max concurrently undecided slots; >= 1 *)
  base_timeout : Sim.Sim_time.t;  (** per-slot DLS round-0 timeout *)
  reply_to : int -> int array;
      (** absolute engine pids of an item's participants (decision
          fan-out targets) *)
  hops_of : int -> int;  (** legs an item needs funded before commit *)
}

val verify :
  config ->
  signer:Xcrypto.Auth.signer ->
  Quorum.Committee.batch Consensus.Dls.decision_cert ->
  bool
(** Outsider certificate verification for participants' [Shared.verify];
    [signer] is any signer registered in any registry — it is unused by
    verification but required to build the committee config.

    [verify cfg ~signer] builds the config once and returns a checker that
    remembers the last few certificates it accepted: a certificate that is
    physically the same value, or equal to one of them in every field and
    every signature, is accepted without re-checking. The answer is the
    same either way; only the cost differs. The memo is mutable state of
    the returned checker, so build one per run and never share it between
    domains. *)

val handlers :
  config ->
  index:int ->
  signer:Xcrypto.Auth.signer ->
  (Msg.t, Obs.t) Sim.Engine.handlers * Quorum.Committee.t
(** Handlers for committee replica [index], to be registered at logical
    pid [index] of the committee block; [signer] must be the registry's
    signer for auth id [index]. The replica's committee state rides along
    so the host can read deterministic statistics
    ({!Quorum.Committee.stats}) and the sequencer's decisions, and
    {!Quorum.Committee.forget} an item once no participant of it can ask
    again. *)
