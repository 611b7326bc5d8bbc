(** Model-specific code generation for the C++ mini-app corpus.

    Real mini-app ports share their numerical algorithm and differ in the
    parallel scaffolding each model imposes. This module captures that
    scaffolding once per model as a {!gen} record — allocation idiom,
    element access syntax, kernel definition + dispatch shape, reduction
    shape, setup/teardown — and each mini-app composes its kernels
    through it. The emitted sources are what the pipeline analyses; they
    parse, lower, and run under the interpreter for verification.

    The ten models are the paper's Table II set: Serial, OpenMP,
    OpenMP target, CUDA, HIP, SYCL (USM), SYCL (Accessors), Kokkos, TBB,
    StdPar. *)

type codebase = {
  app : string;          (** application id, e.g. ["tealeaf"] *)
  model : string;        (** model id, e.g. ["sycl-usm"] *)
  model_name : string;   (** display name *)
  lang : [ `C | `F ];
  main_file : string;    (** entry translation unit *)
  extra_units : string list;
      (** further translation units (linked in; indexed as their own
          comparison units per Eq. (1)) *)
  files : (string * string) list;
      (** every file of the codebase: main first, then model shims and
          system headers *)
  system_headers : string list;  (** subset of [files] masked from trees *)
  defines : (string * string) list;  (** -D macros for the compile command *)
}

type gen
(** A model's code-generation vocabulary. *)

val gen_for : string -> gen option
(** [gen_for id] looks up a model generator by id. *)

val all_ids : string list
(** The ten C++ model ids of the paper's evaluation (Table II),
    ["serial"] first. *)

val extended_ids : string list
(** {!all_ids} plus the extension models this repository adds beyond the
    paper's evaluation set (currently ["raja"]). *)

val model_name : gen -> string
(** Display name of the generator's model. *)

(** The pieces mini-apps compose. All statement lists are lines of MiniC
    code at main-body indentation; kernels also return top-level
    definitions to splice before [main]. *)

val includes : gen -> string list

val alloc : gen -> name:string -> n:string -> string list
(** Declare-and-allocate a [double] array of extent [n]. *)

val dealloc : gen -> name:string -> n:string -> string list

val arr : gen -> string -> string -> string
(** [arr g a i] — the element-access expression ([a\[i\]] or the view
    form [a(i)]). *)

val map_kernel :
  gen ->
  name:string ->
  n:string ->
  arrays:string list ->
  scalars:(string * string) list ->
  body:string list ->
  string list * string list
(** [map_kernel g ~name ~n ~arrays ~scalars ~body] renders a data-parallel
    loop whose body (statements over index [i], written with {!arr})
    reads/writes [arrays] and reads the [(type, name)] scalars. Returns
    [(top_level_definitions, call_statements)]. *)

val reduce_kernel :
  gen ->
  name:string ->
  n:string ->
  arrays:string list ->
  scalars:(string * string) list ->
  result:string ->
  expr:string ->
  string list * string list
(** Sum-reduction of [expr] (an expression in [i]) into the predeclared
    [double] variable [result]. *)

val read_back : gen -> host:string -> dev:string -> n:string -> string list
(** Statements staging a device array into a freshly declared host array
    [host] for verification; empty for shared-memory models (verify reads
    the array directly — callers alias [host] to [dev] when this returns
    []). *)

val arr_param : gen -> string -> string
(** [arr_param g name] renders the parameter declaration by which this
    model passes an array between translation units ([double *a],
    [sycl::buffer<double, 1> &a], [Kokkos::View<double*> a]). *)

val ctx_params : gen -> (string * string) list
(** Extra [(type, name)] context parameters a support function needs —
    the SYCL models thread their queue through. *)

val render_support :
  header_comment:string -> tops:string list -> functions:string list -> gen -> string
(** Assemble a support translation unit (no [main]): includes, top-level
    definitions, then the given function definitions. *)

val indent_block : string list -> string list
(** Indent statements one level (two spaces), for nesting inside an
    emitted block. *)

val render : header_comment:string -> tops:string list -> main_body:string list -> gen -> string
(** Assemble a complete translation unit: includes, top-level definitions,
    and [int main()] wrapping [main_body]. *)

val wrap :
  ?extra:(string * string) list ->
  app:string -> gen -> source:string -> main_file:string -> unit -> codebase
(** Package a rendered source (plus optional extra translation units,
    [(filename, content)]) with its model shims and the system headers
    into a {!codebase}. *)
