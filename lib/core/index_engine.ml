module M = Sv_msgpack.Msgpack
module Emit = Sv_corpus.Emit
module Coverage = Sv_util.Coverage
module Index_cache = Sv_db.Index_cache

(* --- engine-wide cache ----------------------------------------------- *)

let cache_ref : Index_cache.cache option ref = ref None
let set_cache c = cache_ref := c
let cache () = !cache_ref

(* --- payload codecs --------------------------------------------------- *)

(* The cache holds two records per codebase. The trees record, under
   [Pipeline.codebase_key], is every tree, every count and the
   normalised lines; the run record, under [run_key] of that key, is the
   interpreter's coverage and verdict, written only once some caller
   asked for a run. Trees reuse the Codebase DB codec so the payload
   shares its locations-included exactness (the warm path must
   reproduce [to_db] bytes, coverage masks and all). *)

let tree_to_msgpack = Sv_db.Codebase_db.tree_to_msgpack
let tree_of_msgpack = Sv_db.Codebase_db.tree_of_msgpack
let ( let* ) = Result.bind

let str_list xs = M.Arr (List.map (fun s -> M.Str s) xs)

let str_list_of = function
  | M.Arr xs ->
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match x with M.Str s -> Ok (s :: acc) | _ -> Error "expected string")
        (Ok []) xs
      |> Result.map List.rev
  | _ -> Error "expected an array of strings"

let unit_info_to_msgpack (u : Pipeline.unit_info) =
  M.Arr
    [
      M.Str u.Pipeline.u_file;
      str_list u.u_deps;
      M.Int u.u_sloc;
      M.Int u.u_sloc_pp;
      M.Int u.u_lloc;
      M.Int u.u_lloc_pp;
      str_list u.u_lines;
      str_list u.u_lines_pp;
      tree_to_msgpack u.u_t_src;
      tree_to_msgpack u.u_t_src_pp;
      tree_to_msgpack u.u_t_sem;
      tree_to_msgpack u.u_t_sem_i;
      tree_to_msgpack u.u_t_ir;
    ]

let unit_info_of_msgpack = function
  | M.Arr
      [
        M.Str file; deps; M.Int sloc; M.Int sloc_pp; M.Int lloc; M.Int lloc_pp;
        lines; lines_pp; t_src; t_src_pp; t_sem; t_sem_i; t_ir;
      ] ->
      let* deps = str_list_of deps in
      let* lines = str_list_of lines in
      let* lines_pp = str_list_of lines_pp in
      let* t_src = tree_of_msgpack t_src in
      let* t_src_pp = tree_of_msgpack t_src_pp in
      let* t_sem = tree_of_msgpack t_sem in
      let* t_sem_i = tree_of_msgpack t_sem_i in
      let* t_ir = tree_of_msgpack t_ir in
      Ok
        {
          Pipeline.u_file = file;
          u_deps = deps;
          u_sloc = sloc;
          u_sloc_pp = sloc_pp;
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
  | _ -> Error "malformed unit_info"

let coverage_to_msgpack cov =
  M.Arr
    (List.map
       (fun (file, lines) ->
         M.Arr
           [
             M.Str file;
             M.Arr (List.map (fun (l, n) -> M.Arr [ M.Int l; M.Int n ]) lines);
           ])
       (Coverage.dump cov))

let coverage_of_msgpack = function
  | M.Arr files ->
      let* entries =
        List.fold_left
          (fun acc f ->
            let* acc = acc in
            match f with
            | M.Arr [ M.Str file; M.Arr lines ] ->
                let* lines =
                  List.fold_left
                    (fun acc l ->
                      let* acc = acc in
                      match l with
                      | M.Arr [ M.Int line; M.Int n ] -> Ok ((line, n) :: acc)
                      | _ -> Error "malformed coverage line")
                    (Ok []) lines
                  |> Result.map List.rev
                in
                Ok ((file, lines) :: acc)
            | _ -> Error "malformed coverage file")
          (Ok []) files
        |> Result.map List.rev
      in
      Ok (Coverage.restore entries)
  | _ -> Error "malformed coverage"

let verification_to_msgpack (v : Pipeline.verification) =
  M.Arr [ M.Bool v.Pipeline.v_ok; M.Str v.v_output; M.Int v.v_steps ]

let verification_of_msgpack = function
  | M.Arr [ M.Bool ok; M.Str output; M.Int steps ] ->
      Ok { Pipeline.v_ok = ok; v_output = output; v_steps = steps }
  | _ -> Error "malformed verification"

let run_to_msgpack (cov, v) =
  M.Arr [ coverage_to_msgpack cov; verification_to_msgpack v ]

let run_of_msgpack = function
  | M.Arr [ cov; v ] ->
      let* cov = coverage_of_msgpack cov in
      let* v = verification_of_msgpack v in
      Ok (cov, v)
  | _ -> Error "malformed run record"

let run_of (ix : Pipeline.indexed) =
  match (ix.Pipeline.ix_coverage, ix.ix_verification) with
  | Some cov, Some v -> Some (cov, v)
  | _ -> None

let indexed_to_msgpack (ix : Pipeline.indexed) =
  M.Arr
    [
      M.Str ix.Pipeline.ix_app;
      M.Str ix.ix_model;
      M.Str ix.ix_model_name;
      M.Str (match ix.ix_lang with `C -> "c" | `F -> "f");
      M.Arr (List.map unit_info_to_msgpack ix.ix_units);
      M.Bin ix.ix_key;
    ]

let indexed_of_msgpack = function
  | M.Arr [ M.Str app; M.Str model; M.Str model_name; M.Str lang; M.Arr units;
            M.Bin key ] ->
      let* lang =
        match lang with
        | "c" -> Ok `C
        | "f" -> Ok `F
        | _ -> Error "malformed language tag"
      in
      let* units =
        List.fold_left
          (fun acc u ->
            let* acc = acc in
            let* u = unit_info_of_msgpack u in
            Ok (u :: acc))
          (Ok []) units
        |> Result.map List.rev
      in
      Ok
        {
          Pipeline.ix_app = app;
          ix_model = model;
          ix_model_name = model_name;
          ix_lang = lang;
          ix_units = units;
          ix_coverage = None;
          ix_verification = None;
          ix_key = key;
          (* the mask memo is a per-process performance artifact, rebuilt
             lazily — never serialised *)
          ix_mask_memo = Hashtbl.create 32;
        }
  | _ -> Error "malformed indexed codebase"

(* --- the engine ------------------------------------------------------- *)

(* The run record's key: 16 bytes, like every index-cache key, derived
   from the trees key, so it names the same sources, defines, dialect
   and pipeline version. *)
let run_key key = Digest.string ("run|" ^ key)

let decode_with of_msgpack payload =
  match M.decode payload with
  | exception M.Decode_error _ -> None
  | v -> Result.to_option (of_msgpack v)

let add_run c key r = Index_cache.add c (run_key key) (M.encode (run_to_msgpack r))

(* Store a freshly computed codebase: its trees record, and its run
   record when the interpreter ran. *)
let store (ix : Pipeline.indexed) =
  match !cache_ref with
  | None -> ()
  | Some c -> (
      Index_cache.add c ix.Pipeline.ix_key (M.encode (indexed_to_msgpack ix));
      match run_of ix with Some r -> add_run c ix.ix_key r | None -> ())

let with_run cb (ix : Pipeline.indexed) =
  if run_of ix <> None then ix
  else
    match !cache_ref with
    | None -> Pipeline.with_run ix (Pipeline.interpret cb)
    | Some c -> (
        match
          Option.bind
            (Index_cache.find c (run_key ix.Pipeline.ix_key))
            (decode_with run_of_msgpack)
        with
        | Some r -> Pipeline.with_run ix r
        | None ->
            let r = Pipeline.interpret cb in
            add_run c ix.ix_key r;
            Pipeline.with_run ix r)

let index_many ?(run = true) ?jobs:_ (cbs : Emit.codebase list) =
  (* every trees record is probed before any miss is indexed, and the
     hits' run records are read last, so the cache sees its finds and
     adds in one fixed order *)
  let probed =
    List.map
      (fun cb ->
        match !cache_ref with
        | None -> None
        | Some c ->
            Option.bind
              (Index_cache.find c (Pipeline.codebase_key cb))
              (decode_with indexed_of_msgpack))
      cbs
  in
  let indexed =
    List.map2
      (fun cb -> function
        | Some ix -> `Hit ix
        | None ->
            let ix = Pipeline.index ~run cb in
            store ix;
            `Fresh ix)
      cbs probed
  in
  List.map2
    (fun cb -> function
      | `Hit ix -> if run then with_run cb ix else ix
      | `Fresh ix -> ix)
    cbs indexed

let index ?run ?jobs:_ cb =
  match index_many ?run [ cb ] with [ ix ] -> ix | _ -> assert false

(* --- TED warm-up ------------------------------------------------------ *)

(* Compile the flat TED kernel of every tree a matrix sweep will touch,
   before any pair is evaluated, so the domains of a parallel sweep only
   ever read them. Ascending size order keeps compile locality cheap;
   reserving scratch for the two largest trees means no DP buffer ever
   regrows mid-sweep. Distances are unaffected — this is purely a
   warming pass. *)
let warm_ted (trees : Sv_tree.Label.tree list) =
  let sorted =
    List.stable_sort
      (fun a b -> compare (Sv_tree.Tree.size a) (Sv_tree.Tree.size b))
      trees
  in
  List.iter Sv_metrics.Divergence.warm_flat sorted;
  match List.rev sorted with
  | a :: b :: _ ->
      Sv_tree.Flat.reserve (Sv_tree.Tree.size a) (Sv_tree.Tree.size b)
  | [ a ] ->
      let n = Sv_tree.Tree.size a in
      Sv_tree.Flat.reserve n n
  | [] -> ()
