(** Fault-tolerant multi-process work pool for CPU-bound batch jobs.

    The TED engine's unit of work — one pairwise tree comparison — is
    pure CPU with a small result, which makes a classic fork/pipe pool
    the right shape under OCaml's runtime: workers are forked {e after}
    the task array is built, so every child sees the inputs via
    copy-on-write memory and only the (tiny) results travel back over a
    pipe, framed as length-prefixed msgpack values.

    Scheduling is dynamic self-balancing in the work-stealing spirit:
    the parent hands each worker one task index at a time and refills
    whichever worker finishes first, so a few expensive pairs cannot
    stall the batch the way a static block split would. Results are
    reassembled by task index, so the output order is deterministic and
    byte-identical to a serial run regardless of worker timing.

    Worker failure is treated as routine, not fatal. The parent detects
    four failure classes — a worker that crashes between frames (exit or
    signal death, e.g. OOM-kill), one that hangs past the per-task
    wall-clock timeout, one that ships a corrupt or truncated result
    frame, and a task that raises — and recovers per {!policy}: the
    worker is killed, reaped and respawned, and the task is re-dispatched
    after an exponential backoff, up to [max_retries] extra attempts.
    A task that exhausts its strikes is (by default) {e degraded}: the
    parent computes it in-process, exactly as the serial path would, so a
    batch always completes with results byte-identical to serial. With
    [degrade = false] the pool instead raises {!Worker_failed}, a typed
    error naming the task index and failure class. *)

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: the [SV_JOBS] environment
    variable if set to a positive integer, otherwise the number of cores
    the runtime recommends ([Domain.recommended_domain_count]). *)

(** Deterministic fault injection, consulted by forked workers at task
    boundaries. A spec gives independent probabilities for each failure
    class plus a seed; the draw for a given (task, attempt) is a pure
    function of the spec, so a chaos run is exactly reproducible no
    matter which worker picks a task up or how the pool is timed.
    Injection only ever happens inside forked children — serial
    ([jobs <= 1]) runs and in-process degraded retries are never
    faulted — so the recovery machinery, not the results, is what a
    chaos run stresses. *)
module Fault : sig
  type spec = {
    crash : float;  (** P(worker kills itself with SIGKILL) *)
    hang : float;  (** P(worker sleeps forever; reclaimed by timeout) *)
    garbage : float;  (** P(worker ships an undecodable result frame) *)
    trunc : float;  (** P(worker ships a torn frame, then exits) *)
    seed : int;
  }

  val none : spec
  (** All rates zero: no injection. *)

  val is_none : spec -> bool

  val parse : string -> (spec, string) result
  (** [parse "crash:0.05,hang:0.02,garbage:0.03,trunc:0.01,seed:42"].
      Unknown keys, rates outside [0..1] and rate sums above 1 are
      errors. Missing keys default to 0 (and seed 0). *)

  val to_string : spec -> string
  (** Inverse of {!parse} for non-zero fields; ["none"] for {!none}. *)

  val set : spec -> unit
  (** Install a process-wide spec (the CLI's [--fault]). Overrides the
      [SV_FAULT] environment variable until {!clear}. *)

  val clear : unit -> unit
  (** Drop the {!set} override, falling back to [SV_FAULT] (parsed once,
      lazily; a malformed value raises [Failure] from the first parallel
      {!val:map}) or {!none}. *)

  val active : unit -> spec
  (** The spec workers will consult: the {!set} override, else
      [SV_FAULT], else {!none}. *)

  type action = Pass | Crash | Hang | Garbage | Trunc

  val draw : spec -> task:int -> attempt:int -> action
  (** The deterministic verdict for one attempt of one task — exposed so
      chaos tests can replay the exact fault sequence a pool run saw and
      assert its retry counters against it. *)
end

type policy = {
  task_timeout : float;
      (** wall-clock seconds one attempt may take before the worker is
          killed and the task struck; [<= 0.] disables the timeout *)
  max_retries : int;
      (** extra worker attempts after the first before a task is
          degraded (or {!Worker_failed} is raised) *)
  backoff : float;
      (** base re-dispatch delay; attempt [k] waits [backoff * 2^(k-1)] *)
  degrade : bool;
      (** after the strikes are exhausted, compute the task in-process
          (guaranteeing completion) instead of raising *)
}

val default_policy : unit -> policy
(** Timeout from [SV_TASK_TIMEOUT] (default 20s), [max_retries = 2],
    [backoff = 50ms], [degrade = true]. *)

type stats = {
  mutable crashes : int;  (** workers that died between result frames *)
  mutable timeouts : int;  (** tasks reclaimed by the per-task timeout *)
  mutable corrupt : int;  (** garbage or truncated result frames *)
  mutable retries : int;  (** re-dispatches of a struck task to a worker *)
  mutable respawns : int;  (** replacement workers forked (one per strike) *)
  mutable degraded : int;  (** tasks completed in-process after max strikes *)
}

val fresh_stats : unit -> stats

val last_stats : unit -> stats
(** The counters of the most recent {!val:map} call (all zero for a
    serial run) — how `sv … --fault` reports recovery activity without
    threading a record through [Tbmd]. *)

val stats_to_string : stats -> string

type failure =
  | Crashed of string  (** exit status, e.g. ["killed by signal -7"] *)
  | Timed_out of float
  | Corrupt_frame of string
  | Task_raised of string  (** [f] raised inside the worker *)

val failure_to_string : failure -> string

exception Worker_failed of { task : int; attempts : int; failure : failure }
(** Raised (after the pool is shut down and every child reaped) when a
    task raised in a worker, or when its strikes are exhausted under
    [degrade = false] — always naming the task index, never hanging on a
    closed pipe. A printer is registered, so the message is readable in
    uncaught-exception reports. *)

val map :
  ?jobs:int ->
  ?policy:policy ->
  ?stats:stats ->
  encode:('b -> Sv_msgpack.Msgpack.t) ->
  decode:(Sv_msgpack.Msgpack.t -> 'b) ->
  f:('a -> 'b) ->
  'a array ->
  'b array
(** [map ~encode ~decode ~f tasks] is [Array.map f tasks] computed by a
    pool of forked workers. [encode]/[decode] carry each result across
    the worker→parent pipe; they must round-trip ([decode (encode b)]
    observationally equal to [b]) for the parallel result to match the
    serial one.

    [jobs] (default {!default_jobs}) caps the pool; it is further capped
    by the task count, and [jobs <= 1] (or fewer than two tasks) runs
    serially in-process — no fork, identical semantics. [policy]
    (default {!default_policy}) governs timeouts, retry budget, backoff
    and degradation; [stats] (mutated in place when provided) exposes
    the recovery counters.

    If [f] raises in a worker, the exception's description is shipped
    back and [map] raises {!Worker_failed} with [Task_raised] in the
    parent after shutting the pool down — a failing task is
    deterministic, so it is never retried. Transport-level failures
    (crash, hang, corrupt frame) are retried per [policy] and can only
    surface as {!Worker_failed} when [policy.degrade] is [false].

    [f] runs in forked children: mutations it makes to shared state are
    invisible to the parent (ship state back through the result value),
    and it must not rely on threads or open channels of the parent.
    Under degradation [f] also runs in the parent for struck tasks, so
    it must not deliberately kill its own process. *)
