(** Vantage-point tree over an integer metric: a deterministic build,
    one best-first k-NN search (exact by default, optionally budgeted or
    ε-approximate) with an honest exactness ledger, and a plain-data
    representation for persistence.

    Elements are caller-side integer ids; the tree stores no payloads.
    Construction and queries are fully deterministic (vantage = lowest
    id, μ = lower median, ties in results broken by id), so query
    answers are {e exactly} the brute-force answers — the k smallest
    (distance, id) pairs — not an approximation, unless the caller
    explicitly passes a budget or ε. The ledger counts evaluator calls,
    the honest measure of work against the brute-force n. *)

type t

val build : dist:(int -> int -> int) -> int array -> t
(** [build ~dist ids] builds the index over [ids] (order-insensitive;
    duplicates are the caller's concern). [dist] must be a metric.
    O(n log n) evaluations in the balanced case. *)

val size : t -> int

val elements : t -> int array
(** The element ids, ascending. O(n log n); for validation by callers
    that persist trees keyed positionally into a candidate array. *)

val build_evals : t -> int
(** Exact-distance evaluations spent building (amortised over
    queries). A tree decoded from {!of_repr} reports 0 — queries
    against a persisted index pay no construction evaluations at all. *)

val to_repr : t -> int array
(** Flatten to a plain preorder int array (sizes, radii, ids — no
    closures), suitable for serialisation by a layer that may not
    depend on this one. [build_evals] is working-set telemetry and
    deliberately not part of the representation. *)

val of_repr : int array -> t option
(** Rebuild a tree from {!to_repr} output. Defensively validates every
    structural invariant — tags, leaf lengths (at most the leaf
    capacity {!build} uses), subtree-count bookkeeping, μ ≥ 0, distinct
    ids, no trailing data — and returns [None] on any violation, so corrupt
    payloads degrade to a cold rebuild instead of wrong answers.
    Metric-dependent facts (that μ really brackets the inside ball) are
    not checkable without the evaluator; persist under a key that
    commits to the corpus and metric. The decoded tree is structurally
    identical to the encoded one, so its query answers and evaluator
    counts are byte-identical; its [build_evals] is 0. *)

type ledger = { evals : int; guaranteed_exact : bool }
(** Per-query work receipt for {!nearest}: the evaluator calls spent,
    and whether the hits provably equal brute force.
    [guaranteed_exact = false] {e only} when the budget or ε actually
    cut the search while the frontier still held a subtree the exact
    rule would have visited; in particular, with no budget and ε = 0 it
    is always [true], and whenever it is [true] the hits are exactly
    the brute-force answer. *)

val nearest :
  dist:(int -> int) ->
  k:int ->
  ?budget:int ->
  ?epsilon:float ->
  t ->
  (int * int) list * ledger
(** [nearest ~dist ~k t] is the k nearest elements to the implicit query
    point as ascending [(distance, id)] pairs, plus the ledger. [dist id]
    is the exact query–element distance. The search is best-first over
    a priority queue of (admissible lower bound, subtree), deterministic
    (FIFO tie-break on equal bounds). [budget] caps evaluator calls;
    [epsilon] ≥ 0 relaxes the pruning rule from [lb > τ] to
    [lb·(1+ε) > τ]. Every point skipped by an ε-cut has distance
    > τ/(1+ε), so each returned rank-i distance is at most (1+ε)× the
    true rank-i distance; a budget stop makes no distance promise beyond
    the ledger's honesty. With neither given, results equal brute force
    exactly. *)
