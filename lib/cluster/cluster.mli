(** Agglomerative hierarchical clustering and dendrograms.

    The paper clusters programming models by their pairwise divergences:
    the N×N divergence matrix is treated as N feature vectors (one row per
    model), row distances are Euclidean, and the dendrogram uses complete
    linkage (§V-A, Fig. 4). This module implements that workflow, plus
    single and average linkage for comparison. *)

type matrix = {
  labels : string array;        (** row/column names, e.g. model names *)
  data : float array array;     (** square; [data.(i).(j)] ≥ 0 *)
}

val of_fn : ?symmetric:bool -> string array -> (int -> int -> float) -> matrix
(** [of_fn labels f] tabulates [f] over the full cartesian product (the
    matrix need not be symmetric — model divergence is directional).

    With [~symmetric:true] the caller asserts [f i j = f j i]: each
    unordered pair is evaluated once ([j >= i]) and mirrored, halving
    the number of [f] calls while producing the identical matrix. *)

val row_euclidean : matrix -> matrix
(** [row_euclidean m] is the symmetric matrix of Euclidean distances
    between rows of [m] — the "Euclidean distance between points" step
    that turns a divergence matrix into clustering input. Only the strict
    upper triangle is computed; the diagonal is exactly [0.] and the
    lower triangle is mirrored. *)

type linkage = Single | Complete | Average

type dendro =
  | Leaf of int                       (** index into [labels] *)
  | Merge of dendro * dendro * float  (** children and merge height *)

val cluster : linkage -> matrix -> dendro
(** [cluster linkage m] agglomerates greedily from the symmetric distance
    matrix [m] (naive O(n³), fine for tens of items). Ties break on the
    lowest pair of cluster indices, so results are deterministic.
    Raises [Invalid_argument] on an empty matrix. *)

val equal : dendro -> dendro -> bool
(** Exact structural equality with bit-for-bit merge heights
    ([Float.equal]) — the oracle the byte-identity harnesses use to check
    a pruned or parallel evaluation reproduced the serial dendrogram
    exactly. *)

val leaves : dendro -> int list
(** Left-to-right leaf order — the display order of the clustered axis. *)

val merge_heights : dendro -> float list
(** All merge heights, bottom-up (sorted ascending). *)

val cophenetic : dendro -> int -> float array array
(** [cophenetic d n] is the n×n matrix of cophenetic distances (height of
    the lowest common merge). For complete and average linkage on a
    metric input this is ultrametric — checked by property tests. *)

val cut : dendro -> float -> int list list
(** [cut d h] returns the clusters obtained by cutting the dendrogram at
    height [h] (groups of leaf indices, in leaf order). *)
