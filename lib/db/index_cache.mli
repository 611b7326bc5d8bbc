(** Persistent cache of indexing results.

    Sibling of {!Codebase_db.Ted_cache}, one layer earlier in the
    pipeline: where the TED cache memoises pairwise distances, this one
    memoises the {e front-end} — the serialised trees and SLOC/LLOC
    counts a codebase indexes to, and, as a separate record, the
    interpreter's verification/coverage results once a caller asked for
    them — so a warm rerun of `sv index/compare/cluster` or the bench
    harness skips preprocessing, parsing, lowering and interpretation
    entirely.

    The cache itself is payload-agnostic: it maps 16-byte keys to opaque
    encoded payloads. The codecs for indexed codebases live in
    {!Sv_core.Index_engine} (this library cannot depend on the core).

    Invalidation is structural, not explicit: {!key} commits to the
    source digest, the preprocessor defines, the language dialect and
    {!pipeline_version}, so any change produces a different key and the
    stale entry is simply never found again.

    Persistence is a typed view over {!Store}: each entry is one record
    of an append-only log, decompressed only when {!find} returns it. *)

type cache

val pipeline_version : int
(** Version stamp of the indexing pipeline + payload layout. Baked into
    every {!key}, and doubles as the on-disk schema version, so bumping
    it orphans all previously cached results at once. *)

val create : unit -> cache
(** Empty cache with zeroed hit/miss counters. *)

val key :
  ?version:int ->
  source_digest:string ->
  defines:string list ->
  dialect:string ->
  unit ->
  string
(** [key ~source_digest ~defines ~dialect ()] is the 16-byte MD5 cache
    key. [source_digest] must cover every input file's name and contents
    (and anything else that selects what gets indexed); [defines] and
    [dialect] are the front-end configuration. [?version] defaults to
    {!pipeline_version} and exists for invalidation tests. *)

val find : cache -> string -> string option
(** Look up a payload, bumping the hit/miss counters. *)

val length : cache -> string -> int option
(** Byte length of the payload stored under a key, leaving the hit/miss
    counters alone. *)

val add : cache -> string -> string -> unit
(** [add c k payload] records a payload. Malformed entries (key not 16
    bytes, empty payload) are dropped and an existing key is never
    overwritten. *)

val size : cache -> int
val hits : cache -> int
val misses : cache -> int

val pending : cache -> int
(** Entries the next {!save_file} will append. *)

val save : cache -> string
(** The canonical store image ({!Store.save}) — entries sorted by key,
    so identical contents serialise to identical bytes. *)

val load : string -> (cache, string) Result.t
(** Decode an image produced by {!save}; corruption, truncation and
    schema mismatches are [Error]s. *)

val save_file : string -> cache -> unit
(** Append the entries added since the load ({!Store.save_file}); a run
    that added nothing writes nothing. Raises [Sys_error]. *)

val load_file : string -> cache
(** [load_file path] indexes a cache file; a missing, foreign or damaged
    file yields what it holds intact, down to an empty cache (a cold
    start, never an error). *)

val stats : cache -> string
(** One-line entry/hit/miss summary. *)
