(** Size-bounded LRU over string keys — the residency policy of the
    `sv serve` daemon.

    The persistent caches ({!Index_cache}, {!Codebase_db.Ted_cache}) are
    unbounded maps: correct for one-shot runs, but a resident service
    would grow without limit. This table bounds the {e decoded, live}
    working set: each entry carries a caller-measured byte size, the
    table holds entries in recency order, and inserting past the byte
    budget evicts from the least-recently-used end. Nothing is spilled:
    the daemon's index cache already holds every resident's trees
    record, so an evicted codebase reloads as a decode (eviction +
    reload must yield identical results; test_serve's conformance suite
    holds that regression).

    The most recently inserted or touched entry is never evicted, even
    when it alone exceeds the budget — a single oversized entry degrades
    to a cache of one rather than thrashing to zero. *)

type 'a t

val create : budget:int -> size_of:('a -> int) -> unit -> 'a t
(** [create ~budget ~size_of ()] is an empty table that will hold at
    most [budget] bytes as measured by [size_of] (clamped to ≥ 0). *)

val find : 'a t -> string -> 'a option
(** Look up a key, moving a hit to the most-recent position and bumping
    the hit/miss counters. *)

val mem : 'a t -> string -> bool
(** Presence test without touching recency or counters. *)

val add : 'a t -> string -> 'a -> unit
(** [add t k v] inserts or replaces the binding for [k] at the
    most-recent position, then evicts least-recent entries until the
    table fits the budget again or only the new entry remains. *)

val remove : 'a t -> string -> unit
(** Drop a binding (removal is explicit, not pressure: no eviction is
    counted). Missing keys are ignored. *)

val count : 'a t -> int
(** Number of resident entries. *)

val bytes : 'a t -> int
(** Sum of [size_of] over resident entries. *)

val budget : 'a t -> int

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val keys_newest_first : 'a t -> string list
(** Resident keys in recency order, most recent first — the observable
    the eviction-order tests pin down. *)

val stats : 'a t -> string
(** One-line entries/bytes/budget/hit/miss/eviction summary. *)
