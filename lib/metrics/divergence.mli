(** Relative divergence measures (§III-B/C, Eq. 4–7).

    [Source] compares normalised line sequences with the O(NP) diff
    distance; the tree metrics ([T_src], [T_sem], [T_sem+i], [T_ir])
    compare semantic-bearing trees with unit-cost TED. [dmax] (Eq. 7) is
    the size of the target tree — the distance at which no similarity
    remains — used to normalise divergences for cross-model
    comparability. *)

val source_distance : string list -> string list -> int
(** [source_distance a b] is the insert+delete edit distance between two
    normalised line lists (Eq. 4's summand). *)

val canon : Sv_tree.Label.tree -> int Sv_tree.Tree.t
(** [canon t] is [t]'s int-labelled view in the process-global
    {!Sv_tree.Hashcons} canonizer behind {!tree_distance}: labels
    interned by {!Sv_tree.Label.equal}, equal subtrees physically
    shared. {!Sv_tree.Ted.distance} with [~eq:Int.equal] over two such
    views is the pointer-tree reference for {!tree_distance}. *)

val warm_flat : Sv_tree.Label.tree -> unit
(** [warm_flat t] canonises [t] and compiles its flat kernel into the
    process-global memo (keyed by intern id) if not already present.
    Call before forking a worker pool so children inherit the compiled
    kernels copy-on-write instead of each recompiling them. *)

val tree_distance : Sv_tree.Label.tree -> Sv_tree.Label.tree -> int
(** Unit-cost TED with the paper's label equality ({!Sv_tree.Label.equal}:
    kind and retained text; locations ignored). Operands are canonised
    through a process-global {!Sv_tree.Hashcons} table, so equal trees
    cost a pointer compare and repeated operands skip re-interning; the
    {!Sv_tree.Flat} kernel, compiled once per distinct tree, computes
    the rest. *)

val tree_distance_matched : Sv_tree.Label.tree -> Sv_tree.Label.tree -> int
(** [tree_distance_matched t1 t2] approximates {!tree_distance} by the
    paper's [match] acceleration (§III-C) pushed one level down: the
    roots' children are paired positionally and their TEDs summed (plus
    the root relabel and the unmatched tails). Any restricted alignment is
    a valid edit script, so the result is an {e upper bound} of the exact
    distance — the trade-off the paper describes between whole-tree TED
    and per-unit matching, exposed for the ablation bench. *)

val dmax_tree : Sv_tree.Label.tree -> int
(** [dmax_tree t2] = |t2| (Eq. 7's summand). *)

val dmax_source : string list -> int
(** Line-count analogue of [dmax] for the [Source] metric. *)

val normalised : d:int -> dmax:int -> float
(** [normalised ~d ~dmax] is [d / dmax] clamped to [0, 1] — the value the
    paper's heatmaps plot (Figs. 7–8). [dmax = 0] maps to 0 when [d = 0]
    and 1 otherwise. *)

val mask_tree :
  Sv_util.Coverage.t -> Sv_tree.Label.tree -> Sv_tree.Label.tree
(** [mask_tree cov t] prunes subtrees whose source span never executed —
    the [+coverage] variant (§IV-D). The root always survives. *)
