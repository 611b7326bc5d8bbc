(** Resolve-then-run interpreter for MiniF.

    Executes the Fortran BabelStream family for verification and coverage
    (the GCov stand-in of §IV-D). Each program unit compiles once per run,
    on its first call: every name the unit can bind gets a frame slot,
    calls bind to their subroutine or intrinsic, each statement gets its
    line's coverage counter, and statements and expressions become OCaml
    closures. Fortran binds names implicitly, so a slot stays empty until
    its first assignment and every read checks it, exactly as a lookup in
    a per-call table would.

    Semantics follow serial Fortran: arrays are 1-based, whole-array
    expressions evaluate elementwise with scalar broadcasting,
    [do concurrent] iterates in order, directive regions run serially,
    and subroutine arguments pass by reference. *)

type value =
  | FUnit
  | FIntV of int
  | FFloatV of float
  | FBoolV of bool
  | FStrV of string
  | FArrV of float array  (** 1-based externally; stored 0-based *)
  | FRefV of value ref

exception Runtime_error of string * Sv_util.Loc.t

type outcome = {
  result : (unit, string) Result.t;
  coverage : Sv_util.Coverage.t;
  output : string;   (** accumulated [print] text *)
  steps : int;
}

val run : ?max_steps:int -> Sv_lang_f.Ast.file -> outcome
(** [run f] executes the file's [program] unit. [max_steps] defaults to
    [50_000_000]. Never raises; failures land in [result]. *)

val value_to_float : value -> float option
(** Numeric view, for test assertions. *)

val observation : outcome -> (unit, string) Result.t * string
(** [observation o] projects the behaviour a semantics-preserving
    transformation must keep: the program's result and the accumulated
    output — the equivalence the corpus generator's semantic check
    compares. *)
