(** Hash-consed (interned) trees.

    The indexing engine derives the same subtrees over and over — model
    ports share their numerical core, units share headers, and the bench
    harness re-indexes whole corpora. Interning gives every distinct
    subtree (under a caller-supplied label equality) a unique small id
    and a 64-bit digest, so:

    - subtree equality is the O(1) comparison [id a = id b];
    - shared structure is deduplicated in memory (one node per distinct
      subtree, children physically shared);
    - consumers can build derived views memoised by id — see
      {!canonizer}, which hands the TED kernels physically-shared
      int-labelled trees, so equal operands are recognised by id before
      any DP runs.

    Interning is exact: ids are assigned through a table keyed by
    (label id, child ids), so two subtrees receive the same id iff they
    are equal under the label equality. The digest is a splitmix64 hash
    over the same key — collisions cannot produce wrong ids (the digest
    never decides equality), it only keys external artifacts. *)

type 'a t
(** An intern table ("cons table"). *)

type 'a node
(** An interned subtree. Physically unique per table: two nodes of the
    same table are equal iff they are the same pointer. *)

type stats = {
  distinct : int;  (** distinct subtrees interned *)
  labels : int;    (** distinct labels interned *)
  hits : int;      (** intern calls answered from the table *)
  misses : int;    (** intern calls that allocated a new node *)
}

val create :
  ?init:int -> hash:('a -> int) -> equal:('a -> 'a -> bool) -> unit -> 'a t
(** [create ~hash ~equal ()] makes an empty table. [equal] may be coarser
    than structural equality ([Label.equal] ignores locations); [hash]
    must agree with it. *)

val intern : 'a t -> 'a Tree.t -> 'a node
(** [intern t tree] interns every subtree bottom-up and returns the root
    node. O(size) label hashing on every call; already-known subtrees
    allocate nothing. *)

val extern : 'a node -> 'a Tree.t
(** [extern n] rebuilds a plain tree. [extern (intern t x)] is equal to
    [x] up to the table's label equality (a representative label is kept
    per equivalence class — for [Label.equal], locations come from the
    first occurrence). *)

val equal : 'a node -> 'a node -> bool
(** O(1) subtree equality: id comparison. Only meaningful between nodes
    of the same table. *)

val id : 'a node -> int
val label_id : 'a node -> int
(** The interned label's id — a dense 0-based label alphabet. *)

val digest : 'a node -> int64
(** 64-bit structural digest (splitmix64 over label ids and child
    digests, order-significant). Equal nodes have equal digests. *)

val size : 'a node -> int
(** Subtree size, computed once at intern time. *)

val label : 'a node -> 'a
val kids : 'a node -> 'a node list

val stats : 'a t -> stats

(** {2 Canonical int-labelled views}

    The TED kernels run on [int Tree.t]. A canonizer pairs an intern
    table with an id-keyed memo of int-labelled trees, so equal trees
    (under the label equality) come back as the {e same physical} value:
    [canon c a == canon c b] iff the trees are equal. *)

type 'a canonizer

val canonizer :
  ?init:int -> hash:('a -> int) -> equal:('a -> 'a -> bool) -> unit -> 'a canonizer

val canon : 'a canonizer -> 'a Tree.t -> int Tree.t
(** [canon c tree] is the physically-shared int-labelled view of [tree];
    labels are the dense {!label_id}s, so label equality maps to integer
    equality exactly. *)

val canon_id : 'a canonizer -> 'a Tree.t -> int * int Tree.t
(** [canon_id c tree] is [canon c tree] paired with the interned root's
    {!id} — a stable dense key for caches of per-tree derived artifacts
    (the metric layer memoises compiled {!Flat.t} kernels by it). Equal
    trees return equal ids. *)
