(** The bundled mini-app corpora, by name.

    One table shared by every layer that resolves an app name — the
    CLI/daemon registry ({!Sv_core.Apps}) and the synthetic-corpus
    generator's mutation seeds ([Sv_gen.Gen]) — so adding a mini-app is
    a change here, not in each consumer. All lookups are
    case-insensitive and recognise the ["babelstream-fortran"] alias. *)

val names : string list
(** Canonical app names, ["babelstream"] first. *)

val corpus : string -> Emit.codebase list option
(** [corpus name] is the app's full bundled model set, emitted once per
    process: every call returns the same codebase values. *)

val builder : string -> (model:string -> Emit.codebase option) option
(** [builder name] is the app's on-demand single-model emitter, the
    hook through which extension models outside the bundled set are
    built. *)
