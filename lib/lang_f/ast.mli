(** Abstract syntax for MiniF.

    The Fortran-side frontend representation behind [T_sem] (the GENERIC /
    High-GIMPLE analogue of §IV-B). Deliberately {e not} label-compatible
    with the MiniC AST: the paper stresses that GIMPLE and ClangAST trees
    are not meaningfully comparable across compilers, and the metric layer
    never mixes them.

    Covers the BabelStream-Fortran model family: whole-array assignments
    ([Array] / [OpenACC Array] models), [do concurrent], classic [do]
    loops, and [!$omp] / [!$acc] directive regions. *)

type base_ty =
  | FReal of int  (** [real(kind=k)]; [real] is kind 4, [double precision] kind 8 *)
  | FInteger
  | FLogical
  | FCharacter

type fattr =
  | Allocatable
  | Dimension of int  (** declared rank, from [dimension(:)] etc. *)
  | Parameter
  | Intent of string  (** ["in"], ["out"], ["inout"] *)

type expr = { e : expr_node; eloc : Sv_util.Loc.t }

and expr_node =
  | FInt of int
  | FRealLit of float
  | FStr of string
  | FBool of bool
  | FVar of string
  | FBin of string * expr * expr  (** operator spelling: ["+"], ["**"], [".and."], ... *)
  | FUn of string * expr
  | FRef of string * arg list
      (** the paren form [name(a, 1:n, :)] — array reference, slice, or
          function call; Fortran syntax cannot distinguish these without
          declarations, so the tree keeps the uniform node and the
          interpreter resolves by environment *)

and arg =
  | AExpr of expr
  | ARange of expr option * expr option  (** [lo:hi], either side open *)

type directive = {
  fd_origin : [ `Omp | `Acc ];
  fd_clauses : (string * string option) list;
  fd_loc : Sv_util.Loc.t;
}

type stmt = { s : stmt_node; sloc : Sv_util.Loc.t }

and stmt_node =
  | FAssign of expr * expr
  | FCallS of string * expr list
  | FIf of expr * stmt list * stmt list
  | FDo of string * expr * expr * expr option * stmt list
      (** [do v = lo, hi [, step]] *)
  | FDoConcurrent of string * expr * expr * stmt list
  | FDoWhile of expr * stmt list
  | FAllocate of (string * expr list) list
  | FDeallocate of string list
  | FDirective of directive * stmt list
      (** a directive and the region/loop it governs *)
  | FPrint of expr list
  | FReturn
  | FExit
  | FCycle
  | FStop of expr option

type decl = {
  d_ty : base_ty;
  d_attrs : fattr list;
  d_names : (string * int * expr option) list;
      (** name, declared rank from an inline spec like [a(n)] (0 when
          scalar), optional initialiser *)
  d_loc : Sv_util.Loc.t;
}

type unit_kind =
  | Program
  | Subroutine of (string list)  (** dummy-argument names *)

type prog_unit = {
  u_kind : unit_kind;
  u_name : string;
  u_decls : decl list;
  u_body : stmt list;
  u_loc : Sv_util.Loc.t;
}

type file = { f_file : string; f_units : prog_unit list }

val main_program : file -> prog_unit option
(** The unique [program] unit, if any. *)
