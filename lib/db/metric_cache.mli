(** Persistent, digest-keyed cache of VP-tree metric indexes.

    Phase 2 of the metric layer: a built {!Sv_metric.Vptree} is a pure
    function of (corpus, metric, variant), so it is persisted exactly
    like {!Index_cache} payloads — one {!Store} record per tree, msgpack
    inside svz, 16-byte digest keys, a schema version — and
    reloaded on the next run or daemon restart, making `sv nearest`
    warm across processes: a cache hit performs {e zero} build
    evaluations and answers queries byte-identically to a cold build.

    Defence in depth on the load path: the store checksums each record,
    svz and msgpack decoding validate the framing, and
    {!Sv_metric.Vptree.of_repr} re-validates every structural invariant
    of each tree, plus a final check that the element ids are exactly
    0..n−1 (they index the candidate array positionally). Any failure
    anywhere degrades to a miss — a cold rebuild — never a crash or a
    wrong answer. Truncated or bit-flipped cache files fall back to an
    empty cache ({!load_file}). *)

type cache

val metric_schema : int
(** Payload schema version; part of every key and of the store header,
    so a file written under another schema loads as an empty cache. *)

val create : unit -> cache

val key :
  ?version:int -> corpus_digest:string -> metric:string -> variant:string ->
  unit -> string
(** 16-byte digest committing to the corpus (candidate content keys in
    order — ids are positional), the metric and variant names, and the
    schema version, so any change makes stale entries unreachable. *)

val find : cache -> string -> Sv_metric.Vptree.t option
(** Decode-on-demand probe. [Some t] only if the payload passes the full
    validation stack; counts a hit. Any malformed payload counts a miss. *)

val add : cache -> string -> Sv_metric.Vptree.t -> unit
(** Encode and store under [key]. Existing keys are never overwritten
    (re-adding after a concurrent populate is a no-op). *)

val merge : cache -> (string * string) list -> unit
(** Merge raw (key, payload) entries defensively: malformed entries are
    dropped, existing keys never overwritten — merging the same batch
    twice is a no-op. *)

val size : cache -> int
val hits : cache -> int
val misses : cache -> int

val pending : cache -> int
(** Entries the next {!save_file} will append. *)

val save : cache -> string
(** The canonical store image ({!Store.save}): sorted, deterministic —
    equal contents serialise byte-identically. *)

val load : string -> (cache, string) result

val save_file : string -> cache -> unit
(** Append the trees added since the load; writes nothing when there
    are none. Raises [Sys_error]. *)

val load_file : string -> cache
(** Missing or corrupt files yield what they hold intact, down to an
    empty cache (cold start). *)

val stats : cache -> string
