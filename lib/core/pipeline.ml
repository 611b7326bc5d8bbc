module Tree = Sv_tree.Tree
module Label = Sv_tree.Label
module Loc = Sv_util.Loc
module Coverage = Sv_util.Coverage
module Emit = Sv_corpus.Emit
module M = Sv_msgpack.Msgpack

type unit_info = {
  u_file : string;
  u_deps : string list;
  u_sloc : int;
  u_sloc_pp : int;
  u_lloc : int;
  u_lloc_pp : int;
  u_lines : string list;
  u_lines_pp : string list;
  u_t_src : Label.tree;
  u_t_src_pp : Label.tree;
  u_t_sem : Label.tree;
  u_t_sem_i : Label.tree;
  u_t_ir : Label.tree;
}

type verification = { v_ok : bool; v_output : string; v_steps : int }

type indexed = {
  ix_app : string;
  ix_model : string;
  ix_model_name : string;
  ix_lang : [ `C | `F ];
  ix_units : unit_info list;
  ix_coverage : Coverage.t option;
  ix_verification : verification option;
  ix_key : string;
  ix_mask_memo : (string, Label.tree) Hashtbl.t;
}

(* The source digest covers everything that selects or shapes the
   indexing inputs: identity metadata, the unit list, every file name and
   content, and the system-header mask. The preprocessor defines and
   dialect travel as their own key components so invalidation tests can
   flip them independently. Whether the interpreter ran is not part of
   it: the interpreter's results are a separate record, keyed by
   [Index_engine] from this key. *)
let compute_codebase_key (cb : Emit.codebase) =
  let strs xs = M.Arr (List.map (fun s -> M.Str s) xs) in
  let source_digest =
    Digest.string
      (M.encode
         (M.Arr
            [
              M.Str cb.Emit.app;
              M.Str cb.Emit.model;
              M.Str cb.Emit.model_name;
              M.Str cb.Emit.main_file;
              strs cb.Emit.extra_units;
              M.Arr
                (List.map
                   (fun (name, content) -> M.Arr [ M.Str name; M.Str content ])
                   cb.Emit.files);
              strs cb.Emit.system_headers;
            ]))
  in
  Sv_db.Index_cache.key ~source_digest
    ~defines:(List.map (fun (k, v) -> k ^ "=" ^ v) cb.Emit.defines)
    ~dialect:(match cb.Emit.lang with `C -> "minic" | `F -> "minif")
    ()

(* The key encodes and digests every source of the codebase; a resident
   daemon resolves the same codebase values on every request, so the key
   is memoised per value: keyed by physical identity, with weak keys, so
   an entry lives no longer than its codebase. *)
module Key_memo = Ephemeron.K1.Make (struct
  type t = Emit.codebase

  let equal = ( == )

  (* names only: a structural hash would read whole source files *)
  let hash (cb : t) = Hashtbl.hash (cb.Emit.app, cb.Emit.model)
end)

let key_memo = Key_memo.create 64

let codebase_key cb =
  match Key_memo.find_opt key_memo cb with
  | Some k -> k
  | None ->
      let k = compute_codebase_key cb in
      Key_memo.add key_memo cb k;
      k

(* Prune every node located in a system header (§III-C: "those can simply
   be masked out during the analysis phase"). *)
let mask_system_files system tree =
  let keep (l : Label.t) =
    Loc.is_none l.Label.loc || not (List.mem l.Label.loc.Loc.file system)
  in
  match Tree.filter_prune keep tree with
  | Some t -> t
  | None -> Tree.leaf (Tree.label tree)

(* The inliner resolves a qualified call [ns::f] against a shim definition
   named [ns_f] (MiniC cannot define qualified names). *)
let inline_env units name =
  let underscored =
    String.concat "_"
      (List.filter (fun s -> s <> "") (String.split_on_char ':' name))
  in
  let find n =
    List.fold_left
      (fun acc (u : Sv_lang_c.Ast.tunit) ->
        match acc with
        | Some _ -> acc
        | None -> Sv_lang_c.Ast.find_function u n)
      None units
  in
  match find name with Some f -> Some f | None -> find underscored

let preprocess (cb : Emit.codebase) file =
  let resolve name = List.assoc_opt name cb.Emit.files in
  let src =
    match List.assoc_opt file cb.Emit.files with
    | Some s -> s
    | None -> failwith (Printf.sprintf "unit %s not among the codebase files" file)
  in
  (resolve, src, Sv_lang_c.Preproc.run ~resolve ~defines:cb.Emit.defines ~file src)

let index_c_unit_info (cb : Emit.codebase) file =
  let resolve, src, pp = preprocess cb file in
  let system = cb.Emit.system_headers in
  (* pre-preprocessor view: the unit is the file plus every non-system
     dependency, each contributing its own CST and normalised lines *)
  let unit_files =
    (file, src)
    :: List.filter_map
         (fun d ->
           if List.mem d system then None
           else Option.map (fun content -> (d, content)) (resolve d))
         pp.Sv_lang_c.Preproc.deps
  in
  let t_src =
    Tree.flatten_forest
      (Label.v ~loc:(Loc.make ~file ~line:1 ~col:0) "unit")
      (List.map (fun (f, content) -> Sv_lang_c.Cst.t_src ~file:f content) unit_files)
  in
  let t_src_pp =
    mask_system_files system
      (Sv_lang_c.Cst.t_src_of_tokens ~file pp.Sv_lang_c.Preproc.tokens)
  in
  let ast = Sv_lang_c.Parser.parse_tokens ~file pp.Sv_lang_c.Preproc.tokens in
  let t_sem = mask_system_files system (Sv_lang_c.Sem_tree.of_tunit ast) in
  let ast_inlined =
    Sv_lang_c.Sem_tree.inline_calls ~env:(inline_env [ ast ]) ~depth:3 ast
  in
  let t_sem_i = mask_system_files system (Sv_lang_c.Sem_tree.of_tunit ast_inlined) in
  let ir = Sv_lang_c.Lower.lower ~file [ ast ] in
  (match Sv_ir.Ir.validate ir with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: invalid IR: %s" file e));
  let t_ir = mask_system_files system (Sv_ir.Ir.to_tree ir) in
  let lines =
    List.concat_map
      (fun (f, content) -> Sv_metrics.Normalize.c_lines ~file:f content)
      unit_files
  in
  let lines_pp = Sv_metrics.Normalize.c_lines_of_tokens pp.Sv_lang_c.Preproc.tokens in
  let lloc =
    List.fold_left
      (fun acc (f, content) ->
        acc + Sv_metrics.Counts.lloc_c (Sv_lang_c.Token.lex ~file:f content))
      0 unit_files
  in
  let lloc_pp = Sv_metrics.Counts.lloc_c pp.Sv_lang_c.Preproc.tokens in
  {
    u_file = file;
    u_deps = pp.Sv_lang_c.Preproc.deps;
    u_sloc = Sv_metrics.Counts.sloc_of_lines lines;
    u_sloc_pp = Sv_metrics.Counts.sloc_of_lines lines_pp;
    u_lloc = lloc;
    u_lloc_pp = lloc_pp;
    u_lines = lines;
    u_lines_pp = lines_pp;
    u_t_src = t_src;
    u_t_src_pp = t_src_pp;
    u_t_sem = t_sem;
    u_t_sem_i = t_sem_i;
    u_t_ir = t_ir;
  }

(* Just the AST of one unit — preprocess + parse, no trees, no IR, no
   counts: what the interpreter needs. *)
let c_unit_ast cb file =
  let _, _, pp = preprocess cb file in
  Sv_lang_c.Parser.parse_tokens ~file pp.Sv_lang_c.Preproc.tokens

let index_f (cb : Emit.codebase) =
  let file = cb.Emit.main_file in
  let src = List.assoc file cb.Emit.files in
  let ast = Sv_lang_f.Parser.parse ~file src in
  let t_src = Sv_lang_f.Cst.t_src ~file src in
  let t_sem = Sv_lang_f.Sem_tree.of_file ast in
  let ir = Sv_lang_f.Lower.lower ~file ast in
  (match Sv_ir.Ir.validate ir with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: invalid IR: %s" file e));
  let t_ir = Sv_ir.Ir.to_tree ir in
  let lines = Sv_metrics.Normalize.f_lines ~file src in
  let lloc = Sv_metrics.Counts.lloc_f (Sv_lang_f.Token.lex ~file src) in
  [
    {
      u_file = file;
      u_deps = [];
      u_sloc = Sv_metrics.Counts.sloc_of_lines lines;
      u_sloc_pp = Sv_metrics.Counts.sloc_of_lines lines;
      u_lloc = lloc;
      u_lloc_pp = lloc;
      u_lines = lines;
      u_lines_pp = lines;
      u_t_src = t_src;
      (* Fortran has no preprocessor in MiniF; GFortran's GENERIC path has
         no tree-level inliner either (§IV-B), so both variants coincide
         with the base trees. *)
      u_t_src_pp = t_src;
      u_t_sem = t_sem;
      u_t_sem_i = t_sem;
      u_t_ir = t_ir;
    };
  ]

(* The one place the interpreter runs. The sources are parsed again here
   rather than shared with the tree builders, so indexing that never
   asks for a run never pays for one, and trees served from the index
   cache need no AST kept beside them. *)
let interpret (cb : Emit.codebase) =
  match cb.Emit.lang with
  | `C ->
      (* every translation unit links into one program; the interpreter
         sees them all and enters main *)
      let files = cb.Emit.main_file :: cb.Emit.extra_units in
      let o = Sv_interp.Interp_c.run (List.map (c_unit_ast cb) files) in
      let ok =
        match o.Sv_interp.Interp_c.result with
        | Ok (Sv_interp.Interp_c.VInt 0) -> true
        | _ -> false
      in
      ( o.Sv_interp.Interp_c.coverage,
        {
          v_ok = ok;
          v_output = o.Sv_interp.Interp_c.output;
          v_steps = o.Sv_interp.Interp_c.steps;
        } )
  | `F ->
      let file = cb.Emit.main_file in
      let ast = Sv_lang_f.Parser.parse ~file (List.assoc file cb.Emit.files) in
      let o = Sv_interp.Interp_f.run ast in
      let passed =
        match o.Sv_interp.Interp_f.result with
        | Ok () ->
            (* Fortran ports report via printed validation text *)
            let s = o.Sv_interp.Interp_f.output in
            let needle = "Validation PASSED" in
            let n = String.length needle and m = String.length s in
            let rec scan i = i + n <= m && (String.sub s i n = needle || scan (i + 1)) in
            scan 0
        | Error _ -> false
      in
      ( o.Sv_interp.Interp_f.coverage,
        {
          v_ok = passed;
          v_output = o.Sv_interp.Interp_f.output;
          v_steps = o.Sv_interp.Interp_f.steps;
        } )

let with_run ix (coverage, verification) =
  { ix with ix_coverage = Some coverage; ix_verification = Some verification }

let index ?(run = true) (cb : Emit.codebase) =
  let ix =
    {
      ix_app = cb.Emit.app;
      ix_model = cb.Emit.model;
      ix_model_name = cb.Emit.model_name;
      ix_lang = cb.Emit.lang;
      ix_units =
        (match cb.Emit.lang with
        | `C ->
            List.map (index_c_unit_info cb)
              (cb.Emit.main_file :: cb.Emit.extra_units)
        | `F -> index_f cb);
      ix_coverage = None;
      ix_verification = None;
      ix_key = codebase_key cb;
      ix_mask_memo = Hashtbl.create 32;
    }
  in
  if run then with_run ix (interpret cb) else ix

let metric_tag = function
  | `TSrc -> "t_src"
  | `TSrcPP -> "t_src_pp"
  | `TSem -> "t_sem"
  | `TSemI -> "t_sem_i"
  | `TIr -> "t_ir"

let unit_tree ~metric ~coverage ix u =
  let base =
    match metric with
    | `TSrc -> u.u_t_src
    | `TSrcPP -> u.u_t_src_pp
    | `TSem -> u.u_t_sem
    | `TSemI -> u.u_t_sem_i
    | `TIr -> u.u_t_ir
  in
  if not coverage then base
  else
    match ix.ix_coverage with
    | Some cov -> (
        (* Every +cov comparison used to re-prune the tree per pair; the
           mask depends only on (unit, metric), so memoise it on the
           codebase. Unit files are unique within one codebase. *)
        let key = u.u_file ^ "#" ^ metric_tag metric in
        match Hashtbl.find_opt ix.ix_mask_memo key with
        | Some t -> t
        | None ->
            let t = Sv_metrics.Divergence.mask_tree cov base in
            Hashtbl.add ix.ix_mask_memo key t;
            t)
    | None ->
        (* a run-less index has no coverage to mask with; answering with
           the unmasked tree would put a wrong +cov cell in every memo
           keyed on [ix_key] *)
        invalid_arg
          (Printf.sprintf "Pipeline.unit_tree: %s/%s was indexed without a run; +cov needs coverage"
             ix.ix_app ix.ix_model)

let to_db ix =
  let unit_record (u : unit_info) =
    let base_trees =
      [
        ("t_src", u.u_t_src);
        ("t_src_pp", u.u_t_src_pp);
        ("t_sem", u.u_t_sem);
        ("t_sem_i", u.u_t_sem_i);
        ("t_ir", u.u_t_ir);
      ]
    in
    let cov_trees =
      match ix.ix_coverage with
      | None -> []
      | Some cov ->
          List.map
            (fun (name, t) -> (name ^ "+cov", Sv_metrics.Divergence.mask_tree cov t))
            base_trees
    in
    {
      Sv_db.Codebase_db.ur_file = u.u_file;
      ur_deps = u.u_deps;
      ur_sloc = u.u_sloc;
      ur_lloc = u.u_lloc;
      ur_lines = u.u_lines;
      ur_trees = base_trees @ cov_trees;
    }
  in
  {
    Sv_db.Codebase_db.db_app = ix.ix_app;
    db_model = ix.ix_model;
    db_units = List.map unit_record ix.ix_units;
  }
