(** Semantics-preserving mutation operators over the MiniC AST.

    Each operator enumerates its candidate sites in deterministic
    traversal order and rewrites exactly one, chosen by the caller's
    PRNG. Operators are conservative — they fire only where the rewrite
    is arguably observation-preserving (IEEE-exact commutations,
    same-iteration loop splits, serial-interpreter-neutral directive
    edits…) — and the generator re-verifies every variant through the
    interpreter regardless, so a failed argument costs a discarded
    variant, never a wrong corpus entry. *)

type op =
  | Rename             (** uniform fresh rename of one local *)
  | Commute            (** [a + b -> b + a], [a * b -> b * a], pure operands *)
  | Reassoc            (** [(a+b)+c <-> a+(b+c)], integer-typed only *)
  | SwapStmts          (** exchange adjacent independent simple statements *)
  | Fission            (** split a same-index counted loop in two *)
  | Tile               (** strip-mine a counted loop (order-preserving) *)
  | Interchange        (** swap independent perfectly nested counted loops *)
  | DirectivePermute   (** reorder a pragma's clause tail *)
  | DirectiveHoist     (** [parallel for] <-> [parallel { for }] *)
  | Extract            (** outline a counted loop into a fresh function *)
  | Inline             (** substitute a call to a local void helper *)

val all_ops : op list
val op_name : op -> string

type applied = {
  ap_op : op;
  ap_site : int;    (** ordinal of the rewritten site *)
  ap_sites : int;   (** total candidate sites of this operator *)
  ap_detail : string;
}

val sites : op -> Sv_lang_c.Ast.tunit -> int
(** Number of candidate sites (no RNG consumed). *)

val apply :
  Sv_util.Prng.t ->
  op ->
  Sv_lang_c.Ast.tunit ->
  (Sv_lang_c.Ast.tunit * applied) option
(** Rewrite one PRNG-chosen site; [None] when the operator has no site
    in this unit. The RNG is consulted only for the site choice and any
    rewrite-local draws (fresh names, split points, tile sizes). *)
