(** The Tree-Based Model Divergence metric (§III-C) over indexed
    codebases.

    Implements Eq. (2)–(7): absolute counts (SLOC/LLOC) summed across
    units; relative measures ([Source] via O(NP) edit distance, the tree
    metrics via TED) summed over matched unit pairs, normalised by the
    maximum divergence [dmax] (the target codebase's size), clamped to
    [0, 1] like the paper's heatmaps.

    The [match] function of Eq. (4)/(6) pairs units positionally: every
    corpus port has the same unit structure, which is exactly the
    "units with the same purpose" pairing the paper requires. Comparing
    codebases of different languages is a programming error
    ([Invalid_argument]) — §IV-B: frontend trees are not comparable
    across compilers. *)

type metric = SLOC | LLOC | Source | TSrc | TSem | TSemI | TIr

type variant =
  | Base  (** as written *)
  | PP    (** after the preprocessor ([+preprocessor]) *)
  | Cov   (** coverage-masked ([+coverage]) *)

val all_metrics : metric list
(** Table I order. *)

val metric_label : metric -> string
(** e.g. ["T_sem+i"]. *)

val variant_label : variant -> string
(** [""], ["+pp"], ["+cov"]. *)

val metric_of_string : string -> metric option
(** Parse a CLI spelling (["sloc"], ["t_sem"], ["t_sem+i"], ...). *)

(** {2 Engine configuration}

    [matrix] computes each unordered codebase pair once. At every
    [set_jobs n] it first plans the TED DPs its serial loop would run,
    asking the TED cache before it interns a tree, so pairs the cache
    answers are never interned or compiled. Only a plan with a DP
    compiles the matrix's trees and sizes the DP scratch; with n ≥ 2 the
    DPs then run on up to [n] domains
    ({!Sv_metrics.Divergence.with_dps}). The serial loop runs last and
    takes each DP result instead of recomputing it: the matrix, the
    memo, the TED cache and the counters are those of a serial run, and
    a fully warm matrix compiles nothing and runs no DP.
    With a persistent TED cache installed ([set_ted_cache]), every
    pairwise tree comparison first consults the digest-keyed table (each
    tree value is digested once per process, not once per pair).

    OCaml 5.1 refuses to fork a process that has ever spawned a domain,
    so a program that forks must do it before its first [matrix] at
    [n] ≥ 2. *)

val set_jobs : int -> unit
(** Most domains {!matrix} runs its DPs on (clamped to ≥ 1; default 1 =
    the calling domain only). A matrix uses at most as many domains as
    it has DPs to run and as {!default_jobs} reports. *)

val jobs : unit -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: what a requested worker count
    of 0 means. *)

val set_ted_cache : Sv_db.Codebase_db.Ted_cache.cache option -> unit
(** Install (or remove, with [None]) the persistent TED memo consulted
    by every pairwise tree comparison. *)

val ted_cache : unit -> Sv_db.Codebase_db.Ted_cache.cache option

val clear_memo : unit -> unit
(** Drop the in-process divergence memo — for benchmarks and tests that
    must measure or observe cold recomputation. *)

val set_metric_cache : Sv_db.Metric_cache.cache option -> unit
(** Install (or remove, with [None]) the persistent VP-tree cache
    consulted by {!vp_index}: a hit skips construction entirely (zero
    build evaluations, hits byte-identical to a cold build — the tree
    structure is a deterministic function of the corpus), a miss
    records the freshly built tree for the next process. Keys commit to
    the corpus digest, metric, variant and schema version. *)

val metric_cache : unit -> Sv_db.Metric_cache.cache option

val vp_key : ?variant:variant -> metric -> Pipeline.indexed list -> string
(** The metric-cache key {!vp_index} would use for this corpus — for
    callers that memoise decoded indexes keyed the same way. It digests
    the candidates' content keys ([ix_key]) in order, so it is equal
    across two indexings of the same sources and changes with any
    source byte of any candidate. *)

val absolute : metric -> Pipeline.indexed -> int option
(** [absolute m ix] is the codebase-level value for absolute metrics
    (Eq. 2–3); [None] for relative metrics. *)

val raw_divergence :
  ?variant:variant -> metric -> Pipeline.indexed -> Pipeline.indexed -> int * int
(** [raw_divergence m c1 c2] is [(d, dmax)] summed over matched units.
    For SLOC/LLOC, [d] is the absolute difference of totals and [dmax]
    the target's total. *)

val divergence :
  ?variant:variant -> metric -> Pipeline.indexed -> Pipeline.indexed -> float
(** Normalised divergence in [0, 1]: [d / dmax] clamped (Figs. 7–8's cell
    value). Zero iff the codebases are metric-identical. *)

val matrix :
  ?variant:variant ->
  metric ->
  Pipeline.indexed list ->
  Sv_cluster.Cluster.matrix
(** Pairwise divergence over the cartesian product (Fig. 4's input),
    labelled with model display names. *)

val dendrogram :
  ?variant:variant ->
  ?linkage:Sv_cluster.Cluster.linkage ->
  metric ->
  Pipeline.indexed list ->
  Sv_cluster.Cluster.matrix * Sv_cluster.Cluster.dendro
(** The paper's clustering recipe: divergence matrix → Euclidean row
    distance → agglomerative clustering (complete linkage by default). *)

(** {2 k-NN navigation (Fig. 15)}

    "Find the nearest existing port": a VP-tree over the candidate
    codebases under the {e unnormalized} integer divergence (the true
    metric), built once (or reloaded from the metric cache) and queried
    by one best-first search whose every evaluation is the exact,
    memoised {!raw_divergence} — so a query after a {!matrix} over the
    same corpus reuses the pairs it settled. Exact queries equal a
    brute-force scan, ties broken by index; a budgeted or ε-approximate
    query says in its ledger whether it still does. *)

type vp
(** A built index over a fixed candidate list. *)

val vp_index :
  ?variant:variant -> metric -> Pipeline.indexed list -> vp
(** Build the index (deterministic; O(n log n) exact distances), or —
    with a metric cache installed ({!set_metric_cache}) — reload the
    persisted tree for this exact corpus/metric/variant with zero build
    evaluations. The candidate order defines the ids reported in
    stats. *)

val vp_build_evals : vp -> int
(** Exact distance evaluations spent building the index; 0 for an
    index reloaded from the metric cache. *)

val vp_nearest :
  vp ->
  k:int ->
  ?budget:int ->
  ?epsilon:float ->
  Pipeline.indexed ->
  (Pipeline.indexed * int * float) list * Sv_metric.Vptree.ledger
(** [vp_nearest t ~k q] is the k candidates nearest to [q] in ascending
    order as [(codebase, raw d, normalised)] — normalisation against
    each hit's own dmax, at the edge only — plus the per-query ledger
    ({!Sv_metric.Vptree.nearest}): the evaluations actually spent
    (compare against a brute-force n) and the honest exactness claim.
    [budget] caps evaluations and [epsilon] relaxes pruning
    multiplicatively; with neither, the hits equal brute force and
    [guaranteed_exact] is true. *)
