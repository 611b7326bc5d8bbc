(** Flat post-order TED kernel.

    [Tree.t] is a pointer forest; the Zhang–Shasha DP only ever needs a
    handful of per-node integers, so each tree is compiled {e once} into
    contiguous [Bigarray] int arrays — postorder labels, leftmost-leaf
    indices and keyroots, in both decomposition directions — and every
    pairwise distance runs over those plus a reusable scratch buffer:
    zero allocation and no polymorphic-compare calls in the O(n₁·n₂·…)
    inner loops. Per pair the kernel picks the cheaper direction (left
    path, or right path via the mirror decomposition — the distance is
    mirror-invariant), and bounded queries pass a pruning cascade
    (pointer equality, size bound, label-histogram/leaves/height lower
    bound) before any DP cell is touched; a pair no stage settles runs
    the full DP and is compared with the cutoff afterwards. Distances
    are exactly those of the pointer-tree reference {!Ted.distance};
    the test suites check the two kernels cell by cell over whole
    corpora.

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

val scratch : unit -> scratch
(** A fresh, empty scratch context. *)

val reserve : ?scratch:scratch -> int -> int -> unit
(** [reserve n1 n2] pre-grows the buffers for a pair of sizes [n1], [n2]
    — warm this with the two largest trees of a matrix and the row never
    reallocates. Defaults to the process-shared scratch. *)

val lower_bound : t -> t -> int
(** Admissible lower bound on the unit-cost TED from compile-time
    summaries only (O(k₁+k₂) in distinct labels): the maximum of the
    size delta, the unmatched label mass, the leaf-count delta and the
    height delta — one edit operation moves each by at most one. *)

val distance : ?scratch:scratch -> t -> t -> int
(** Exact unit-cost TED; equals [Ted.distance] on the source trees.
    Physically equal flats short-circuit to 0; separately compiled
    flats of one tree run the DP (callers that intern trees, like the
    divergence layer, decide equality by intern id before calling).
    [scratch] defaults to the process-shared context. *)

val distance_bounded : ?scratch:scratch -> cutoff:int -> t -> t -> int option
(** [distance_bounded ~cutoff a b] is [Some d] iff [distance a b = d] and
    [d <= cutoff]. Runs the pruning cascade first, so far pairs the
    size or summary bound separates are rejected without touching the
    DP; any other pair runs the full DP. *)
