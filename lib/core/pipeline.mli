(** The end-to-end SilverVale pipeline (§IV, Fig. 2–3).

    Takes a codebase (sources + model metadata, as produced by the corpus
    emitters or read back from a Compilation DB), runs the frontend
    stages, and yields every semantic-bearing tree and count the metric
    layer consumes:

    - MiniC units: preprocess (include splicing, macros, [-D] defines) →
      CST ([T_src], pre- and post-preprocessor) → AST ([T_sem], plus the
      inlined [T_sem+i]) → IR ([T_ir]); system-header content is masked
      out of every post-preprocessor tree.
    - MiniF units: lex → CST ([T_src]) → AST ([T_sem]) → IR ([T_ir]).
    - Optionally, the interpreter executes the codebase to (a) check the
      mini-app's built-in verification and (b) record the line coverage
      behind every [+coverage] variant. Tree building never runs it;
      {!interpret} is the one function that does.

    Indexing is pure parsing/lowering — it never fails on the bundled
    corpus (enforced by tests); [index] raises [Failure] with a located
    message on malformed input. *)

type unit_info = {
  u_file : string;
  u_deps : string list;            (** headers spliced in, system included *)
  u_sloc : int;                    (** pre-preprocessor, system masked *)
  u_sloc_pp : int;
  u_lloc : int;
  u_lloc_pp : int;
  u_lines : string list;           (** normalised lines (pre-pp, system masked) *)
  u_lines_pp : string list;
  u_t_src : Sv_tree.Label.tree;
  u_t_src_pp : Sv_tree.Label.tree;
  u_t_sem : Sv_tree.Label.tree;
  u_t_sem_i : Sv_tree.Label.tree;
  u_t_ir : Sv_tree.Label.tree;
}

type verification = {
  v_ok : bool;       (** the port's built-in verification passed *)
  v_output : string; (** program output *)
  v_steps : int;
}

type indexed = {
  ix_app : string;
  ix_model : string;
  ix_model_name : string;
  ix_lang : [ `C | `F ];
  ix_units : unit_info list;
  ix_coverage : Sv_util.Coverage.t option;
      (** [None] when the interpreter did not run ([index ~run:false]) *)
  ix_verification : verification option;  (** [None] likewise *)
  ix_key : string;
      (** content key: {!codebase_key} of the sources this was indexed
          from — equal keys mean equal trees and counts, and equal
          interpreter results whenever both sides ran, so memos of
          anything computed from the codebase key on it. It does not
          say whether the interpreter ran: {!unit_tree} refuses a
          [+coverage] tree of a run-less index instead. *)
  ix_mask_memo : (string, Sv_tree.Label.tree) Hashtbl.t;
      (** per-codebase memo of coverage-masked trees, keyed by
          ["<unit file>#<metric tag>"] — masking is pure in (unit,
          metric), so it is computed once instead of once per pair *)
}

val codebase_key : Sv_corpus.Emit.codebase -> string
(** The {!Sv_db.Index_cache.key} for one codebase: the source digest
    spans identity metadata, the unit list, every file name and content
    and the system-header mask; defines and dialect are separate key
    components. Any change to any of them is a new key. Whether the
    interpreter runs is no part of it: one key names the trees and
    counts, and {!Index_engine} derives the key of the interpreter's
    record from it. *)

val index : ?run:bool -> Sv_corpus.Emit.codebase -> indexed
(** [index cb] runs the front-end over every unit of [cb], main unit
    first; with [~run:true] (default) it also calls {!interpret} for
    verification + coverage, and with [~run:false] [ix_coverage] and
    [ix_verification] are [None]. *)

val interpret :
  Sv_corpus.Emit.codebase -> Sv_util.Coverage.t * verification
(** Parse the codebase again ({!c_unit_ast} per MiniC unit, the MiniF
    parser for Fortran) and execute it: the line coverage and the
    built-in verification verdict. The only caller of the interpreters
    in the pipeline. *)

val with_run : indexed -> Sv_util.Coverage.t * verification -> indexed
(** [with_run ix r] is [ix] carrying [r] as its coverage and verdict. *)

val c_unit_ast : Sv_corpus.Emit.codebase -> string -> Sv_lang_c.Ast.tunit
(** Preprocess + parse only (no trees, IR or counts): one unit of the
    program {!interpret} runs. *)

val to_db : indexed -> Sv_db.Codebase_db.t
(** Convert to the portable Codebase DB artifact (trees + metadata,
    §IV). Coverage-masked tree variants are stored alongside the base
    trees when coverage ran. *)

val unit_tree :
  metric:[ `TSrc | `TSrcPP | `TSem | `TSemI | `TIr ] ->
  coverage:bool ->
  indexed ->
  unit_info ->
  Sv_tree.Label.tree
(** Select a unit's tree for a tree metric, optionally coverage-masked.
    Raises [Invalid_argument] when [coverage] is [true] and the index
    carries no coverage (it was built with [~run:false]): the unmasked
    tree is not the [+coverage] tree, and a memo keyed on [ix_key]
    must never hold it as one. *)
