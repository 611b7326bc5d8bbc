(** Tree Edit Distance (TED).

    TED is the minimum-cost sequence of node deletions, insertions and
    relabellings transforming one ordered tree into another (§III-B;
    Bille's survey). The paper uses APTED; we implement the classic
    Zhang–Shasha algorithm, which computes the identical distance (the
    value is algorithm-independent) with the keyroots decomposition in
    O(n₁·n₂·min(d₁,l₁)·min(d₂,l₂)) time and O(n₁·n₂) space — comfortably
    enough for per-unit trees of a few thousand nodes.

    Costs follow the paper: unit weight for every operation, relabelling a
    node to an equal label is free. A custom cost model can be supplied for
    the weighted variants the paper lists as future work. *)

type 'a costs = {
  delete : 'a -> int;  (** cost of deleting a node of the first tree *)
  insert : 'a -> int;  (** cost of inserting a node of the second tree *)
  relabel : 'a -> 'a -> int;
      (** cost of turning a label of the first tree into one of the
          second; must be 0 on equal labels for [distance] to be 0 on
          identical trees *)
}

val unit_costs : ('a -> 'a -> bool) -> 'a costs
(** [unit_costs eq] is the paper's cost model: delete = insert = 1,
    relabel = 0 when [eq] holds and 1 otherwise. *)

val distance : ?costs:'a costs -> eq:('a -> 'a -> bool) -> 'a Tree.t -> 'a Tree.t -> int
(** [distance ~eq t1 t2] is the Zhang–Shasha tree edit distance under
    [costs] (default [unit_costs eq]). Symmetric under unit costs, zero
    iff the trees are equal, and bounded by [Tree.size t1 + Tree.size t2].

    Raises [Invalid_argument] if a custom [costs] record violates its
    contract on the labels actually present — a negative delete/insert
    cost, or a nonzero [relabel] on equal labels.

    The metric layer computes unit-cost distances with {!Flat}; this
    pointer-tree kernel is its reference in the tests and the kernel of
    the weighted-cost ablation. *)

val distance_brute : eq:('a -> 'a -> bool) -> 'a Tree.t -> 'a Tree.t -> int
(** [distance_brute ~eq t1 t2] computes the same unit-cost distance with
    the direct forest recursion plus memoisation. Exponential state space
    in the worst case — only for small trees; it serves as the
    property-test oracle for {!distance}. *)
