(** Resolve-then-run interpreter for MiniC.

    Serves two purposes from the paper's artifact appendix: it runs each
    mini-app's built-in verification ("each mini-app contains built-in
    verification for correctness"), and it produces the line-coverage
    profile that SilverVale's coverage variant consumes (§IV-D) — this
    container has no GCov/Clang coverage, so execution itself is the
    profiler.

    A run first links the program's units, then compiles each function
    the first time it is called: every variable becomes a frame slot,
    every call is bound to its function or builtin, each statement gets
    its line's coverage counter, and statements and expressions become
    OCaml closures. A name that may or may not be bound when the code
    runs (a lambda reading a variable its scope declares later, a global
    before its initialiser ran) keeps a checked slot, so lookups see
    exactly the bindings a direct walk of the AST would.

    Every dialect executes with serial semantics: OpenMP directives run
    their statement; CUDA/HIP launches iterate the grid with
    [blockIdx]/[threadIdx] bound per iteration; SYCL queues, Kokkos
    [parallel_for]/[parallel_reduce], TBB ranges and StdPar algorithms are
    interpreted through a builtin model of each runtime. Parallel loops
    therefore execute in a fixed sequential order, which keeps
    verification deterministic. *)

type value =
  | VUnit
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VArrF of float array   (** double/float data *)
  | VArrI of int array     (** int data *)
  | VRef of value ref      (** address-of result / out-parameter *)
  | VFun of Sv_lang_c.Ast.func
  | VClosure of closure
  | VObj of string * (string, value) Hashtbl.t
      (** library object (queue, handler, range, blocked_range, dim3…) *)

and closure

exception Runtime_error of string * Sv_util.Loc.t
(** Execution error: unknown name, bad operand, step-budget exhausted… *)

type outcome = {
  result : (value, string) Result.t;  (** entry function's return value *)
  coverage : Sv_util.Coverage.t;      (** per-line execution profile *)
  output : string;                    (** accumulated [printf] text *)
  steps : int;                        (** statements executed *)
}

val run :
  ?max_steps:int ->
  ?entry:string ->
  ?args:value list ->
  Sv_lang_c.Ast.tunit list ->
  outcome
(** [run units] executes [entry] (default ["main"], default no arguments;
    a missing [argc]/[argv] pair is tolerated) across the translation
    units of one program. [max_steps] (default [50_000_000]) bounds
    execution. Never raises: errors are reported in [result]. *)

val value_to_float : value -> float option
(** Numeric view of a value, for assertions in tests and benches. *)

val observation : outcome -> (value, string) Result.t * string
(** [observation o] projects the behaviour a semantics-preserving
    transformation must keep: the entry function's result and the
    accumulated output. Coverage and step counts are execution detail,
    free to change. This is the equivalence the corpus generator's
    semantic check compares. *)

val pp_value : Format.formatter -> value -> unit
(** Debug printer. *)
