(** Flat post-order TED kernel.

    [Tree.t] is a pointer forest; the Zhang–Shasha DP only ever needs a
    handful of per-node integers, so each tree is compiled {e once} into
    contiguous [Bigarray] int arrays — postorder labels, leftmost-leaf
    indices and keyroots, in both decomposition directions — and every
    pairwise distance runs over those plus a reusable scratch buffer:
    zero allocation and no polymorphic-compare calls in the O(n₁·n₂·…)
    inner loops. Per pair the kernel picks the cheaper direction (left
    path, or right path via the mirror decomposition — the distance is
    mirror-invariant); physically equal flats skip the DP, every other
    pair runs it in full. Distances are exactly those of the
    pointer-tree reference {!Ted.distance}; the test suites check the
    two kernels cell by cell over whole corpora.

    Counters for equality shortcuts, DP runs, compiles and strategy
    picks accumulate in {!Sv_perf.Telemetry.ted}. *)

type t
(** A compiled tree. Immutable; safe to share across any number of
    distance calls (and, via fork, across worker processes). *)

type scratch
(** Reusable DP buffers (the td and fd tables), grown geometrically and
    never cleared. One scratch must not be used concurrently; one per
    worker is the intended shape. *)

val of_tree : int Tree.t -> t
(** [of_tree t] compiles [t]. O(n); performed once per distinct tree by
    the callers that cache flats. *)

val size : t -> int

val scratch : unit -> scratch
(** A fresh, empty scratch context. *)

val reserve : ?scratch:scratch -> int -> int -> unit
(** [reserve n1 n2] pre-grows the buffers for a pair of sizes [n1], [n2]
    — warm this with the two largest trees of a matrix and the row never
    reallocates. Defaults to the process-shared scratch. *)

val distance : ?scratch:scratch -> t -> t -> int
(** Exact unit-cost TED; equals [Ted.distance] on the source trees.
    Physically equal flats short-circuit to 0; separately compiled
    flats of one tree run the DP (callers that intern trees, like the
    divergence layer, decide equality by intern id before calling).
    [scratch] defaults to the process-shared context. *)
