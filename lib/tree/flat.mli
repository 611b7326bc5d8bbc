(** Flat post-order TED kernel.

    [Tree.t] is a pointer forest; the Zhang–Shasha DP only ever needs a
    handful of per-node integers, so each tree is compiled {e once} into
    contiguous [Bigarray] int arrays — postorder labels, leftmost-leaf
    indices and keyroots, in both decomposition directions — and every
    pairwise distance runs over those plus a reusable scratch buffer:
    zero allocation and no polymorphic-compare calls in the O(n₁·n₂·…)
    inner loops. Per pair the kernel picks the cheaper direction (left
    path, or right path via the mirror decomposition — the distance is
    mirror-invariant), and bounded queries pass a pruning cascade (digest
    equality, size bound, label-histogram/leaves/height lower bound,
    pq-gram profile bound, binary-branch profile bound) before any DP
    cell is touched. Distances are exactly those of the pointer-tree
    reference {!Ted.distance}; the test suites check the two kernels
    cell by cell over whole corpora.

    Counters for prunes, DP runs, compiles and strategy picks accumulate
    in {!Sv_perf.Telemetry.ted}. *)

type t
(** A compiled tree. Immutable; safe to share across any number of
    distance calls (and, via fork, across worker processes). *)

type scratch
(** Reusable DP buffers (the td and fd tables), grown geometrically and
    never cleared. One scratch must not be used concurrently; one per
    worker is the intended shape. *)

val of_tree : int Tree.t -> t
(** [of_tree t] compiles [t]. O(n log n) (histogram sort); performed once
    per distinct tree by the callers that cache flats. *)

val size : t -> int
val digest : t -> int64
(** Structural splitmix64 digest; equal trees have equal digests, and a
    flat compiled from a {!Hashcons} canonical int view carries the
    table's digest (same mixer, label ids {e are} the labels there). *)

val scratch : unit -> scratch
(** A fresh, empty scratch context. *)

val reserve : ?scratch:scratch -> int -> int -> unit
(** [reserve n1 n2] pre-grows the buffers for a pair of sizes [n1], [n2]
    — warm this with the two largest trees of a matrix and the row never
    reallocates. Defaults to the process-shared scratch. *)

val lower_bound : t -> t -> int
(** Admissible lower bound on the unit-cost TED from compile-time
    summaries only (O(k₁+k₂) in distinct labels / profile bins): the
    maximum of the size delta, the unmatched label mass, the leaf-count
    delta, the height delta, the binary-branch profile bound
    ⌈‖BRV₁−BRV₂‖₁ / 5⌉ (Yang–Kalnis–Tung): one edit operation rewrites at
    most five (label, first-child, next-sibling) triples, so the L1
    distance between the triple multisets is ≤ 5·TED — and the pq-gram
    profile bound ⌈‖PQ₁−PQ₂‖₁ / 9⌉ over the parent-extended tuples (one
    edit rewrites at most nine of those). Dominates the old
    four-component bound pointwise. *)

val branch_bound : t -> t -> int
(** The binary-branch component of {!lower_bound} alone (for telemetry
    and property tests). *)

val pqgram_bound : t -> t -> int
(** The pq-gram component of {!lower_bound} alone: Augsten-style label
    tuples (binary parent + side, label, first-child, next-sibling) over
    the first-child/next-sibling transform, ⌈L1/9⌉ of the profile
    difference. Admissible — see the factor-9 argument at the profile
    builder; property-tested against the brute oracle. Runs ahead of
    {!branch_bound} in the bounded cascade with its own prune counter. *)

val distance : ?scratch:scratch -> t -> t -> int
(** Exact unit-cost TED; equals [Ted.distance] on the source trees.
    Equal flats (pointer or digest) short-circuit to 0. [scratch]
    defaults to the process-shared context. *)

val distance_bounded : ?scratch:scratch -> cutoff:int -> t -> t -> int option
(** [distance_bounded ~cutoff a b] is [Some d] iff [distance a b = d] and
    [d <= cutoff]. Runs the pruning cascade first, so most far pairs are
    rejected without touching the DP; pairs that do reach the DP abandon
    as soon as the cutoff is provably unreachable. *)
