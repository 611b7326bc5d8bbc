module M = Sv_msgpack.Msgpack
module Emit = Sv_corpus.Emit
module Coverage = Sv_util.Coverage
module Index_cache = Sv_db.Index_cache
module Loc = Sv_util.Loc

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
let ( let* ) = Result.bind

let str_list xs = M.Arr (List.map (fun s -> M.Str s) xs)

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

(* The trees record read in one pass, straight from its bytes: the
   inverse of [indexed_to_msgpack] without a generic [M.t] in between.
   Two things make the decoded codebase share what the cold one shares.
   Kinds, texts and location file names come from one string table. A value
   whose bytes repeat the one before it (Fortran's [u_lines_pp],
   [u_t_src_pp] and [u_t_sem_i] are [u_lines], [u_t_src] and [u_t_sem])
   is that value itself. Any malformed record raises [M.Decode_error]. *)
let read_trees_record payload =
  let c = M.cursor payload in
  let fields n =
    if M.read_array c <> n then raise (M.Decode_error "malformed trees record")
  in
  let tab = M.strtab () in
  let loc () =
    if M.read_nil c then Loc.none
    else begin
      fields 5;
      let f = M.read_str_shared tab c in
      let sl = M.read_int c in
      let sc = M.read_int c in
      let el = M.read_int c in
      let ec = M.read_int c in
      { Loc.file = f; start = { Loc.line = sl; col = sc }; stop = { Loc.line = el; col = ec } }
    end
  in
  let rec tree c =
    fields 4;
    let kind = M.read_str_shared tab c in
    let text = M.read_str_shared tab c in
    let loc = loc () in
    let kids = M.read_list c tree in
    Sv_tree.Tree.Node ({ Sv_tree.Label.kind; text; loc }, kids)
  in
  let lines c = M.read_list c M.read_str in
  (* [f]'s value with the byte range it was read from *)
  let spanned f =
    let start = M.pos c in
    let v = f c in
    (v, start, M.pos c)
  in
  let repeat (v, start, stop) f = if M.skip_repeat c ~start ~stop then v else f c in
  let unit c =
    fields 13;
    let u_file = M.read_str c in
    let u_deps = lines c in
    let u_sloc = M.read_int c in
    let u_sloc_pp = M.read_int c in
    let u_lloc = M.read_int c in
    let u_lloc_pp = M.read_int c in
    let ((u_lines, _, _) as l) = spanned lines in
    let u_lines_pp = repeat l lines in
    let ((u_t_src, _, _) as t) = spanned tree in
    let u_t_src_pp = repeat t tree in
    let ((u_t_sem, _, _) as t) = spanned tree in
    let u_t_sem_i = repeat t tree in
    let u_t_ir = tree c in
    {
      Pipeline.u_file; u_deps; u_sloc; u_sloc_pp; u_lloc; u_lloc_pp; u_lines;
      u_lines_pp; u_t_src; u_t_src_pp; u_t_sem; u_t_sem_i; u_t_ir;
    }
  in
  fields 6;
  let ix_app = M.read_str c in
  let ix_model = M.read_str c in
  let ix_model_name = M.read_str c in
  let ix_lang =
    match M.read_str c with
    | "c" -> `C
    | "f" -> `F
    | _ -> raise (M.Decode_error "malformed language tag")
  in
  let ix_units = M.read_list c unit in
  let ix_key = M.read_bin c in
  if not (M.at_end c) then raise (M.Decode_error "trailing bytes");
  {
    Pipeline.ix_app;
    ix_model;
    ix_model_name;
    ix_lang;
    ix_units;
    ix_coverage = None;
    ix_verification = None;
    ix_key;
    (* the mask memo is a per-process performance artifact, rebuilt
       lazily — never serialised *)
    ix_mask_memo = Hashtbl.create 32;
  }

let trees_of_record payload =
  match read_trees_record payload with
  | ix -> Some ix
  | exception M.Decode_error _ -> None

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
              trees_of_record)
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
