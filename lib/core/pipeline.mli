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
      behind every [+coverage] variant.

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
  ix_verification : verification option;
  ix_key : string;
      (** content key: {!codebase_key} of the sources this was indexed
          from — equal keys mean equal indexing results, so memos of
          anything computed from the codebase key on it *)
  ix_mask_memo : (string, Sv_tree.Label.tree) Hashtbl.t;
      (** per-codebase memo of coverage-masked trees, keyed by
          ["<unit file>#<metric tag>"] — masking is pure in (unit,
          metric), so it is computed once instead of once per pair *)
}

val codebase_key : run:bool -> Sv_corpus.Emit.codebase -> string
(** The {!Sv_db.Index_cache.key} for one codebase: the source digest
    spans identity metadata, the unit list, every file name and content,
    the system-header mask and the [run] flag; defines and dialect are
    separate key components. Any change to any of them is a new key. *)

val index :
  ?run:bool ->
  ?unit_indexer:(string list -> unit_info list) ->
  Sv_corpus.Emit.codebase ->
  indexed
(** [index cb] runs the pipeline; with [~run:true] (default) the
    interpreter also executes the codebase for verification + coverage.

    [?unit_indexer], given the unit file list (main first), supplies the
    per-unit results instead of the serial {!index_c_unit_info} map — the
    hook through which {!Index_engine} injects worker-computed units.
    Only consulted for MiniC codebases; when the interpreter runs, the
    unit ASTs are re-derived in-process (preprocess + parse only), which
    yields the same program the serial path executes. The hook must
    return exactly what [List.map (index_c_unit_info cb) files] would,
    or the byte-identity guarantee is the caller's loss. *)

val index_c_unit_info : Sv_corpus.Emit.codebase -> string -> unit_info
(** One MiniC translation unit through every front-end stage — the
    work item the parallel engine fans out. *)

val c_unit_ast : Sv_corpus.Emit.codebase -> string -> Sv_lang_c.Ast.tunit
(** Preprocess + parse only (no trees, IR or counts) — how the parent
    cheaply reconstitutes the linked program for the interpreter when
    units were indexed elsewhere. *)

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
(** Select a unit's tree for a tree metric, optionally coverage-masked
    (masking without recorded coverage returns the tree unchanged). *)
