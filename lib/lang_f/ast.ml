type base_ty = FReal of int | FInteger | FLogical | FCharacter

type fattr = Allocatable | Dimension of int | Parameter | Intent of string

type expr = { e : expr_node; eloc : Sv_util.Loc.t }

and expr_node =
  | FInt of int
  | FRealLit of float
  | FStr of string
  | FBool of bool
  | FVar of string
  | FBin of string * expr * expr
  | FUn of string * expr
  | FRef of string * arg list

and arg = AExpr of expr | ARange of expr option * expr option

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
  | FDoConcurrent of string * expr * expr * stmt list
  | FDoWhile of expr * stmt list
  | FAllocate of (string * expr list) list
  | FDeallocate of string list
  | FDirective of directive * stmt list
  | FPrint of expr list
  | FReturn
  | FExit
  | FCycle
  | FStop of expr option

type decl = {
  d_ty : base_ty;
  d_attrs : fattr list;
  d_names : (string * int * expr option) list;
  d_loc : Sv_util.Loc.t;
}

type unit_kind = Program | Subroutine of string list

type prog_unit = {
  u_kind : unit_kind;
  u_name : string;
  u_decls : decl list;
  u_body : stmt list;
  u_loc : Sv_util.Loc.t;
}

type file = { f_file : string; f_units : prog_unit list }

let main_program f = List.find_opt (fun u -> u.u_kind = Program) f.f_units
