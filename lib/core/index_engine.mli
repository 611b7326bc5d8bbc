(** The indexing engine: parallel, cache-aware front-end driving
    {!Pipeline.index}.

    Three coordinated layers make re-indexing cheap while leaving the
    answers untouched:

    - {b Parallel front-end.} Misses are fanned over the {!Sv_sched}
      fork/pipe pool — whole codebases in chunks when there are at least
      as many misses as workers, per-unit jobs (stitched back through
      {!Pipeline.index}'s [unit_indexer] hook) when codebases are scarce.
      Results are reassembled in input order, so output is byte-identical
      to the serial path; the pool's timeout/retry/degradation machinery
      applies unchanged.
    - {b Persistent cache.} When a {!Sv_db.Index_cache} is installed
      ({!set_cache}; the CLI's [--index-cache] / [SV_INDEX_CACHE]),
      each codebase has two records in it. The {e trees record}, under
      {!Pipeline.codebase_key}, holds every tree, count and normalised
      line; a warm run skips preprocessing, parsing and lowering. The
      {e run record}, under {!run_key} of that key, holds the
      interpreter's coverage and verdict. It is written only when a
      caller asks for a run ([~run:true]), so trees-only callers never
      interpret, and a later run reuses it.
    - {b Hash-consed trees} live below, in {!Sv_tree.Hashcons} /
      {!Sv_metrics.Divergence} — decoded or freshly built trees are
      interned on first comparison, so the warm path feeds the same
      fast-path-friendly structures to TED as the cold one. *)

val set_cache : Sv_db.Index_cache.cache option -> unit
(** Install (or clear) the process-wide index cache consulted by
    {!index} / {!index_many}. *)

val cache : unit -> Sv_db.Index_cache.cache option

type grain = [ `Serial | `Codebase | `Unit ]
(** How a batch of cache misses is executed: in-process, fanned out at
    whole-codebase grain, or fanned out per translation unit. *)

val plan_grain :
  jobs:int -> ?chunk:int -> Sv_corpus.Emit.codebase list -> grain
(** The grain {!index_many} will pick for the given {e missing}
    codebases. Serial when [jobs <= 1] or a single miss — and also when
    there are enough misses for the codebase-grain fan-out but their
    average source size is below the IPC floor (16 KiB): shipping a
    fully indexed small codebase through the fork pipe and decoding it
    in the parent costs more than indexing it in-process (the PR 8 corpus-study
    regression, jobs=2 at 4.5× serial on 1000 tiny generated units). An
    explicit [?chunk] bypasses the floor — the caller is asking for the
    parallel shape. Exposed so benches and tests can assert which path a
    corpus takes. *)

val index :
  ?run:bool ->
  ?jobs:int ->
  ?chunk:int ->
  Sv_corpus.Emit.codebase ->
  Pipeline.indexed
(** Cache-aware {!Pipeline.index} ([run] defaults to [true]). *)

val index_many :
  ?run:bool ->
  ?jobs:int ->
  ?chunk:int ->
  Sv_corpus.Emit.codebase list ->
  Pipeline.indexed list
(** [index_many cbs] indexes a batch, in order. Trees records found in
    the cache are served directly (an undecodable payload counts as a
    miss, never an error); misses run at the grain {!plan_grain} picks —
    serially, in the worker pool at whole-codebase grain (submission
    chunk [?chunk], default [max 1 (misses / (2 * jobs))]), or at unit
    grain when misses are scarcer than workers. Every freshly computed
    result is added to the installed cache.

    With [~run:true] (the default) every result also carries the
    interpreter's coverage and verdict. A trees miss is interpreted
    where its trees are built (in the worker at codebase grain, in the
    parent otherwise); a trees hit reads its run record, or interprets
    in the parent and stores one ({!with_run}). With [~run:false]
    nothing is interpreted and [ix_coverage]/[ix_verification] are
    [None].

    [jobs] defaults to {!Sv_sched.Sched.default_jobs}. The result is
    byte-identical to [List.map (Pipeline.index ~run) cbs] in all
    configurations. *)

val with_run : Sv_corpus.Emit.codebase -> Pipeline.indexed -> Pipeline.indexed
(** [with_run cb ix] is [ix] (an index of [cb]) with the interpreter's
    coverage and verdict: [ix] itself when it has them, else the run
    record from the installed cache, else {!Pipeline.interpret} — whose
    result is then stored as the run record. *)

val run_key : string -> string
(** [run_key k] is the cache key of the run record of the codebase whose
    trees record is keyed [k]. *)

val warm_ted : Sv_tree.Label.tree list -> unit
(** [warm_ted trees] pre-compiles the flat TED kernel of every tree
    (ascending by size, memoised by intern id in
    {!Sv_metrics.Divergence}) and pre-grows the shared DP scratch for the
    two largest, so a following matrix sweep — serial or fanned over
    forked workers, which inherit the compiled kernels copy-on-write —
    never compiles or reallocates mid-pair. Purely a warming pass;
    distances are unchanged. *)

(** {2 Payload codecs}

    Exposed for tests and the bench harness: the exact serialisation the
    cache stores. *)

val indexed_to_msgpack : Pipeline.indexed -> Sv_msgpack.Msgpack.t
(** The trees record: everything but [ix_coverage] and
    [ix_verification], which travel in the run record. *)

val indexed_of_msgpack :
  Sv_msgpack.Msgpack.t -> (Pipeline.indexed, string) Result.t
(** Inverse of {!indexed_to_msgpack} up to the per-process mask memo
    (rebuilt empty); the result carries no run. *)

val unit_info_to_msgpack : Pipeline.unit_info -> Sv_msgpack.Msgpack.t

val unit_info_of_msgpack :
  Sv_msgpack.Msgpack.t -> (Pipeline.unit_info, string) Result.t
