(** Flat post-order TED kernel.

    [Tree.t] is a pointer forest; the Zhang–Shasha DP only ever needs a
    handful of per-node integers, so each tree is compiled {e once} into
    contiguous [Bigarray] int arrays — postorder labels, leftmost-leaf
    indices and keyroots, in both decomposition directions — and every
    pairwise distance runs over those plus a reusable scratch buffer:
    zero allocation and no polymorphic-compare calls in the O(n₁·n₂·…)
    inner loops. Per pair the kernel picks the cheaper direction (left
    path, or right path via the mirror decomposition — the distance is
    mirror-invariant); physically equal flats skip the DP. Within a DP,
    a keyroot whose subtree repeats an earlier keyroot's subtree (an
    identifier, an index expression, a whole statement) copies that
    keyroot's td cells instead of running its forest tables, and the
    keyroots inside it do nothing: compiling marks the repeats once per
    tree. Distances are exactly those of the pointer-tree reference
    {!Ted.distance}; the test suites check the two kernels cell by cell
    over whole corpora and over trees with planted repeats.

    Counters for equality shortcuts, DP runs and their cells, compiles
    and strategy picks accumulate in {!Sv_perf.Telemetry.ted}; {!dp}
    touches none, so it may run off the main domain. *)

type t
(** A compiled tree. Immutable; safe to share across any number of
    distance calls and domains. *)

type scratch
(** Reusable DP buffers (the td and fd tables), grown geometrically and
    never cleared. One scratch must not be used concurrently; one per
    domain is the intended shape. *)

val of_tree : int Tree.t -> t
(** [of_tree t] compiles [t]. O(n); performed once per distinct tree by
    the callers that cache flats. *)

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

val dp : ?scratch:scratch -> t -> t -> int
(** [dp a b] is the DP {!distance} runs for [a] and [b] (no equality
    shortcut), growing [scratch] as needed, with no counter touched:
    safe on any domain, as long as no other domain uses the same
    scratch at the same time. [scratch] defaults to the process-shared
    context. *)

val cells : t -> t -> int
(** [cells a b] is the number of forest-table cells the DP for [a] and
    [b] computes: u₁·u₂ in the chosen direction, where u sums the subtree
    sizes of the keyroots that are computed rather than copied. This is
    the kernel's own cost figure, for scheduling DPs largest first. *)

val count_dp : t -> t -> unit
(** [count_dp a b] bumps exactly the counters [distance a b] bumps for
    its DP (a run, its {!cells} and its strategy pick), for a caller
    that took the result from {!dp}. *)
