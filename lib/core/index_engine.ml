module M = Sv_msgpack.Msgpack
module Emit = Sv_corpus.Emit
module Coverage = Sv_util.Coverage
module Index_cache = Sv_db.Index_cache
module Sched = Sv_sched.Sched

(* --- engine-wide cache ----------------------------------------------- *)

let cache_ref : Index_cache.cache option ref = ref None
let set_cache c = cache_ref := c
let cache () = !cache_ref

(* --- payload codecs --------------------------------------------------- *)

(* The cache stores a fully indexed codebase: every tree, every count,
   the normalised lines, and the interpreter's verdict + coverage when it
   ran. Trees reuse the Codebase DB codec so the payload shares its
   locations-included exactness (the warm path must reproduce [to_db]
   bytes, coverage masks and all). *)

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

let opt_to_msgpack f = function None -> M.Nil | Some x -> f x

let opt_of_msgpack f = function
  | M.Nil -> Ok None
  | v -> Result.map Option.some (f v)

let indexed_to_msgpack (ix : Pipeline.indexed) =
  M.Arr
    [
      M.Str ix.Pipeline.ix_app;
      M.Str ix.ix_model;
      M.Str ix.ix_model_name;
      M.Str (match ix.ix_lang with `C -> "c" | `F -> "f");
      M.Arr (List.map unit_info_to_msgpack ix.ix_units);
      opt_to_msgpack coverage_to_msgpack ix.ix_coverage;
      opt_to_msgpack verification_to_msgpack ix.ix_verification;
      M.Bin ix.ix_key;
    ]

let indexed_of_msgpack = function
  | M.Arr [ M.Str app; M.Str model; M.Str model_name; M.Str lang; M.Arr units;
            cov; verif; M.Bin key ] ->
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
      let* coverage = opt_of_msgpack coverage_of_msgpack cov in
      let* verification = opt_of_msgpack verification_of_msgpack verif in
      Ok
        {
          Pipeline.ix_app = app;
          ix_model = model;
          ix_model_name = model_name;
          ix_lang = lang;
          ix_units = units;
          ix_coverage = coverage;
          ix_verification = verification;
          ix_key = key;
          (* the mask memo is a per-process performance artifact, rebuilt
             lazily — never serialised *)
          ix_mask_memo = Hashtbl.create 32;
        }
  | _ -> Error "malformed indexed codebase"

(* --- the engine ------------------------------------------------------- *)

let decode_payload payload =
  match M.decode payload with
  | exception M.Decode_error _ -> None
  | v -> (
      match indexed_of_msgpack v with Ok ix -> Some ix | Error _ -> None)

(* Ship one indexed codebase (or a chunk of them) across the worker pipe. *)
let encode_indexed_list ixs = M.Arr (List.map indexed_to_msgpack ixs)

let decode_indexed_list = function
  | M.Arr vs ->
      List.map
        (fun v ->
          match indexed_of_msgpack v with
          | Ok ix -> ix
          | Error e -> failwith ("index worker frame: " ^ e))
        vs
  | _ -> failwith "index worker frame: not an array"

(* --- fan-out grain ---------------------------------------------------- *)

(* Forked indexing ships every result back as a msgpack frame the parent
   must decode — work proportional to the payload, which is itself
   proportional to the source text. For small translation units that
   decode (plus fork/pipe overhead) costs more than indexing outright:
   the PR 8 corpus study measured jobs=2 indexing of 1000 generated
   single-unit codebases at 4.5× the serial wall. So the codebase-grain
   fan-out only engages when the average source size of the missing
   codebases clears a floor; below it the serial loop is the fast path,
   not a fallback. An explicit [?chunk] argument bypasses the heuristic
   (the caller is asking for the parallel shape, e.g. conformance
   tests). *)
let default_grain_bytes = 16384

let source_bytes (cb : Emit.codebase) =
  List.fold_left (fun acc (_, c) -> acc + String.length c) 0 cb.Emit.files

type grain = [ `Serial | `Codebase | `Unit ]

let plan_grain ~jobs ?chunk (misses : Emit.codebase list) : grain =
  let nmiss = List.length misses in
  if jobs <= 1 || nmiss <= 1 then `Serial
  else if nmiss >= jobs then
    if chunk <> None then `Codebase
    else begin
      let total = List.fold_left (fun acc cb -> acc + source_bytes cb) 0 misses in
      if total / nmiss < default_grain_bytes then `Serial else `Codebase
    end
  else `Unit

let index_many ?(run = true) ?jobs ?chunk (cbs : Emit.codebase list) =
  let jobs = match jobs with Some j -> j | None -> Sched.default_jobs () in
  let cbs = Array.of_list cbs in
  let n = Array.length cbs in
  let out : Pipeline.indexed option array = Array.make n None in
  (* cache probe *)
  let keys = Array.make n "" in
  (match !cache_ref with
  | None -> ()
  | Some c ->
      Array.iteri
        (fun i cb ->
          let k = Pipeline.codebase_key ~run cb in
          keys.(i) <- k;
          match Index_cache.find c k with
          | None -> ()
          | Some payload -> out.(i) <- decode_payload payload)
        cbs);
  let misses =
    Array.to_list (Array.mapi (fun i cb -> (i, cb)) cbs)
    |> List.filter (fun (i, _) -> out.(i) = None)
  in
  let record i ix =
    out.(i) <- Some ix;
    match !cache_ref with
    | None -> ()
    | Some c ->
        let k = if keys.(i) <> "" then keys.(i) else Pipeline.codebase_key ~run cbs.(i) in
        Index_cache.add c k (M.encode (indexed_to_msgpack ix))
  in
  let nmiss = List.length misses in
  if nmiss > 0 then begin
    match plan_grain ~jobs ?chunk (List.map snd misses) with
    | `Serial ->
        (* the serial reference path: single miss, jobs=1, or misses too
           small for the fan-out to beat its own IPC *)
        List.iter (fun (i, cb) -> record i (Pipeline.index ~run cb)) misses
    | `Codebase -> begin
      (* whole-codebase grain: enough misses to keep every worker busy.
         Chunked submission amortises fork/pipe overhead; results are
         reassembled by chunk index, so order — hence output — matches
         the serial path byte for byte. *)
      let chunk =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 (nmiss / (2 * jobs))
      in
      let miss_arr = Array.of_list misses in
      let tasks =
        Array.init
          ((nmiss + chunk - 1) / chunk)
          (fun t ->
            Array.to_list (Array.sub miss_arr (t * chunk)
                             (min chunk (nmiss - (t * chunk)))))
      in
      let results =
        Sched.map
          ~jobs
          ~encode:encode_indexed_list
          ~decode:decode_indexed_list
          ~f:(fun chunk -> List.map (fun (_, cb) -> Pipeline.index ~run cb) chunk)
          tasks
      in
      Array.iteri
        (fun t ixs ->
          List.iter2 (fun (i, _) ix -> record i ix) tasks.(t) ixs)
        results
    end
    | `Unit -> begin
      (* unit grain: fewer codebases than workers, so split MiniC
         codebases into per-unit tasks and let the parent reassemble via
         the [unit_indexer] hook (re-running the interpreter in-process —
         the linked program is cheap to re-parse, and coverage recording
         in a forked child would be lost anyway). MiniF codebases are
         single-unit and interpreter-dominated: they stay serial. *)
      let c_misses = List.filter (fun (_, cb) -> cb.Emit.lang = `C) misses in
      let f_misses = List.filter (fun (_, cb) -> cb.Emit.lang = `F) misses in
      let tasks =
        Array.of_list
          (List.concat_map
             (fun (i, cb) ->
               List.map
                 (fun file -> (i, file))
                 (cb.Emit.main_file :: cb.Emit.extra_units))
             c_misses)
      in
      let results =
        Sched.map
          ~jobs
          ~encode:unit_info_to_msgpack
          ~decode:(fun v ->
            match unit_info_of_msgpack v with
            | Ok u -> u
            | Error e -> failwith ("index worker frame: " ^ e))
          ~f:(fun (i, file) -> Pipeline.index_c_unit_info cbs.(i) file)
          tasks
      in
      let by_key = Hashtbl.create 64 in
      Array.iteri (fun t u -> Hashtbl.replace by_key tasks.(t) u) results;
      List.iter
        (fun (i, cb) ->
          let unit_indexer files =
            List.map
              (fun file ->
                match Hashtbl.find_opt by_key (i, file) with
                | Some u -> u
                | None -> Pipeline.index_c_unit_info cb file)
              files
          in
          record i (Pipeline.index ~run ~unit_indexer cb))
        c_misses;
      List.iter (fun (i, cb) -> record i (Pipeline.index ~run cb)) f_misses
    end
  end;
  Array.to_list
    (Array.map
       (function
         | Some ix -> ix
         | None -> assert false (* every index is a hit or a recorded miss *))
       out)

let index ?run ?jobs ?chunk cb =
  match index_many ?run ?jobs ?chunk [ cb ] with
  | [ ix ] -> ix
  | _ -> assert false

(* --- TED warm-up ------------------------------------------------------ *)

(* Compile the flat TED kernel of every tree a matrix sweep will touch,
   before any pair is evaluated (and before any worker forks — children
   then inherit the compiled kernels copy-on-write instead of each
   recompiling them). Ascending size order keeps compile locality cheap;
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
