(** The indexing engine: cache-aware front-end driving
    {!Pipeline.index}.

    Two layers make re-indexing cheap while leaving the answers
    untouched:

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

val index :
  ?run:bool ->
  ?jobs:int ->
  Sv_corpus.Emit.codebase ->
  Pipeline.indexed
(** Cache-aware {!Pipeline.index} of one codebase: {!index_many} of a
    one-element batch. *)

val index_many :
  ?run:bool ->
  ?jobs:int ->
  Sv_corpus.Emit.codebase list ->
  Pipeline.indexed list
(** [index_many cbs] indexes a batch, in order. Trees records found in
    the cache are served directly (an undecodable payload counts as a
    miss, never an error); each miss is indexed in-process by
    {!Pipeline.index} and added to the installed cache.

    With [~run:true] (the default) every result also carries the
    interpreter's coverage and verdict. A trees miss is interpreted
    where its trees are built; a trees hit reads its run record, or
    interprets and stores one ({!with_run}). With [~run:false] nothing
    is interpreted and [ix_coverage]/[ix_verification] are [None].

    The result is byte-identical to [List.map (Pipeline.index ~run) cbs].

    [?jobs] is accepted and ignored. Indexing is serial: fanning misses
    over forked workers (since deleted) was slower than indexing them in-process on
    every bundled app and generated corpus, since each result had to be
    encoded, piped and decoded again. The argument stays only because
    [perfbench/probe.ml] still passes [~jobs:1]. *)

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
    two largest, so a following matrix sweep never compiles or
    reallocates mid-pair; a parallel sweep's domains read the compiled
    kernels as they are. Purely a warming pass; distances are
    unchanged. {!Tbmd.matrix} calls it only when its plan holds a DP: a
    fully warm matrix (every pair memoised or in the TED cache) skips
    the interning, compiling and reserving altogether. The reserve stays
    whenever a DP is planned, because DPs that grow their own scratch
    pair by pair raise the peak resident memory of a cold cluster. *)

(** {2 Payload codecs}

    Exposed for tests and the bench harness: the exact serialisation the
    cache stores. The trees record is written as a {!Sv_msgpack.Msgpack.t}
    and read back in one pass over its bytes, through the MessagePack
    cursor, with no generic value built in between. On the five records
    of [gen:mutate:babelstream:1:5] (730 kB) the generic
    [Msgpack.decode] alone took 18.4 ms, before any conversion to
    trees; the one-pass read takes 7.5 ms (best of 20 in one process, on
    a 2-core x86-64 host). *)

val indexed_to_msgpack : Pipeline.indexed -> Sv_msgpack.Msgpack.t
(** The trees record: everything but [ix_coverage] and
    [ix_verification], which travel in the run record. *)

val trees_of_record : string -> Pipeline.indexed option
(** [trees_of_record bytes] reads an encoded trees record:
    [Some ix] equal to the encoded codebase, with no run and an empty
    mask memo, or [None] when the bytes are not one well-formed trees
    record (a truncated or damaged record never raises). The trees share
    their kind, text and file-name strings, and a [pp] or [+i] variant that equals its base (every Fortran
    unit) is physically the base, as in a freshly indexed codebase. *)
