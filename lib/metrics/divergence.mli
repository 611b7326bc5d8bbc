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
    process-global memo (keyed by intern id) if not already present, so
    a following matrix sweep compiles nothing mid-pair. *)

val tree_distance : Sv_tree.Label.tree -> Sv_tree.Label.tree -> int
(** Unit-cost TED with the paper's label equality ({!Sv_tree.Label.equal}:
    kind and retained text; locations ignored). Operands are canonised
    through a process-global {!Sv_tree.Hashcons} table, so equal trees
    cost a pointer compare and repeated operands skip re-interning; the
    {!Sv_tree.Flat} kernel, compiled once per distinct tree, computes
    the rest. *)

val dp_ids : Sv_tree.Label.tree -> Sv_tree.Label.tree -> (int * int) option
(** [dp_ids t1 t2] is the pair of intern ids whose DP
    [tree_distance t1 t2] would run, with both flat kernels compiled, or
    [None] when the trees are equal and no DP runs. Of the TED counters
    it bumps only [flat_compiles], for a kernel not yet compiled, which
    [tree_distance] then finds compiled. *)

val with_dps : domains:int -> (int * int) list -> (unit -> 'a) -> 'a
(** [with_dps ~domains ids f] runs the DP of every pair in [ids] (from
    {!dp_ids}) on [domains] domains, the calling one included, then runs
    [f]. While [f] runs, a {!tree_distance} call whose DP is among them
    takes the result instead of running it, and bumps the counters the
    DP would have bumped, so [f] counts exactly what it would count
    alone. The DPs touch only their own scratch and result slots; the
    memos and counters stay on the calling domain. An exception raised
    by a DP is re-raised after every domain has been joined. *)

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
