module M = Sv_msgpack.Msgpack
module Tree = Sv_tree.Tree
module Label = Sv_tree.Label
module Loc = Sv_util.Loc

type unit_record = {
  ur_file : string;
  ur_deps : string list;
  ur_sloc : int;
  ur_lloc : int;
  ur_lines : string list;
  ur_trees : (string * Label.tree) list;
}

type t = { db_app : string; db_model : string; db_units : unit_record list }

let loc_to_msgpack (l : Loc.t) =
  if Loc.is_none l then M.Nil
  else
    M.Arr
      [
        M.Str l.Loc.file;
        M.Int l.Loc.start.Loc.line;
        M.Int l.Loc.start.Loc.col;
        M.Int l.Loc.stop.Loc.line;
        M.Int l.Loc.stop.Loc.col;
      ]

let loc_of_msgpack = function
  | M.Nil -> Ok Loc.none
  | M.Arr [ M.Str file; M.Int sl; M.Int sc; M.Int el; M.Int ec ] ->
      Ok
        {
          Loc.file;
          start = { Loc.line = sl; col = sc };
          stop = { Loc.line = el; col = ec };
        }
  | _ -> Error "malformed location"

let rec tree_to_msgpack (Tree.Node (l, cs)) =
  M.Arr
    [ M.Str l.Label.kind; M.Str l.Label.text; loc_to_msgpack l.Label.loc;
      M.Arr (List.map tree_to_msgpack cs) ]

let ( let* ) = Result.bind

let rec tree_of_msgpack = function
  | M.Arr [ M.Str kind; M.Str text; loc; M.Arr children ] ->
      let* loc = loc_of_msgpack loc in
      let* kids =
        List.fold_left
          (fun acc c ->
            let* acc = acc in
            let* t = tree_of_msgpack c in
            Ok (t :: acc))
          (Ok []) children
      in
      Ok (Tree.Node ({ Label.kind; text; loc }, List.rev kids))
  | _ -> Error "malformed tree node"

let unit_to_msgpack u =
  M.Map
    [
      (M.Str "file", M.Str u.ur_file);
      (M.Str "deps", M.Arr (List.map (fun d -> M.Str d) u.ur_deps));
      (M.Str "sloc", M.Int u.ur_sloc);
      (M.Str "lloc", M.Int u.ur_lloc);
      (M.Str "lines", M.Arr (List.map (fun l -> M.Str l) u.ur_lines));
      ( M.Str "trees",
        M.Map (List.map (fun (name, t) -> (M.Str name, tree_to_msgpack t)) u.ur_trees) );
    ]

let get_field fields name =
  match List.assoc_opt (M.Str name) fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %s" name)

let str_list = function
  | M.Arr xs ->
      Ok (List.filter_map (function M.Str s -> Some s | _ -> None) xs)
  | _ -> Error "expected an array of strings"

let unit_of_msgpack = function
  | M.Map fields ->
      let* file = get_field fields "file" in
      let* file = match file with M.Str s -> Ok s | _ -> Error "file not a string" in
      let* deps = Result.bind (get_field fields "deps") str_list in
      let* sloc = get_field fields "sloc" in
      let* sloc = match sloc with M.Int n -> Ok n | _ -> Error "sloc not an int" in
      let* lloc = get_field fields "lloc" in
      let* lloc = match lloc with M.Int n -> Ok n | _ -> Error "lloc not an int" in
      let* lines = Result.bind (get_field fields "lines") str_list in
      let* trees_m = get_field fields "trees" in
      let* trees =
        match trees_m with
        | M.Map kvs ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                match k with
                | M.Str name ->
                    let* t = tree_of_msgpack v in
                    Ok ((name, t) :: acc)
                | _ -> Error "tree name not a string")
              (Ok []) kvs
            |> Result.map List.rev
        | _ -> Error "trees not a map"
      in
      Ok { ur_file = file; ur_deps = deps; ur_sloc = sloc; ur_lloc = lloc;
           ur_lines = lines; ur_trees = trees }
  | _ -> Error "unit record not a map"

let schema_version = 1

let to_msgpack db =
  M.Map
    [
      (M.Str "schema", M.Int schema_version);
      (M.Str "app", M.Str db.db_app);
      (M.Str "model", M.Str db.db_model);
      (M.Str "units", M.Arr (List.map unit_to_msgpack db.db_units));
    ]

let of_msgpack = function
  | M.Map fields ->
      let* schema = get_field fields "schema" in
      let* () =
        match schema with
        | M.Int v when v = schema_version -> Ok ()
        | M.Int v -> Error (Printf.sprintf "unsupported schema version %d" v)
        | _ -> Error "schema not an int"
      in
      let* app = get_field fields "app" in
      let* app = match app with M.Str s -> Ok s | _ -> Error "app not a string" in
      let* model = get_field fields "model" in
      let* model = match model with M.Str s -> Ok s | _ -> Error "model not a string" in
      let* units_m = get_field fields "units" in
      let* units =
        match units_m with
        | M.Arr us ->
            List.fold_left
              (fun acc u ->
                let* acc = acc in
                let* u = unit_of_msgpack u in
                Ok (u :: acc))
              (Ok []) us
            |> Result.map List.rev
        | _ -> Error "units not an array"
      in
      Ok { db_app = app; db_model = model; db_units = units }
  | _ -> Error "database root not a map"

let save db = Sv_svz.Svz.compress (M.encode (to_msgpack db))

let load bytes =
  match Sv_svz.Svz.decompress bytes with
  | exception Sv_svz.Svz.Corrupt msg -> Error ("corrupt artifact: " ^ msg)
  | raw -> (
      match M.decode raw with
      | exception M.Decode_error msg -> Error ("malformed msgpack: " ^ msg)
      | v -> of_msgpack v)

(* --- persistent TED memo cache -------------------------------------- *)

module Ted_cache = struct
  type cache = {
    store : Store.t;  (* ordered digest pair (32 bytes) -> decimal distance *)
    mutable hits : int;
    mutable misses : int;
  }

  let kind = 'T'
  let of_store store = { store; hits = 0; misses = 0 }
  let create () = of_store (Store.create ~kind ~schema:schema_version)

  (* The digest ignores locations because Label.equal does: two trees
     that TED cannot tell apart must hash to the same key, or a
     re-indexed corpus with shifted line numbers would never hit. *)
  let digest t = Digest.string (M.encode (tree_to_msgpack (Label.strip_locs t)))

  (* TED under unit costs is symmetric, so the key is the ordered pair. *)
  let ordered a b = if String.compare a b <= 0 then (a, b) else (b, a)

  let key a b =
    let a, b = ordered a b in
    a ^ b

  let lookup c a b = Option.bind (Store.find c.store (key a b)) int_of_string_opt
  let mem c a b = Option.is_some (lookup c a b)

  let find c a b =
    match lookup c a b with
    | Some d ->
        c.hits <- c.hits + 1;
        Some d
    | None ->
        c.misses <- c.misses + 1;
        None

  let add c a b d = ignore (Store.add c.store (key a b) (string_of_int d))

  let size c = Store.size c.store
  let pending c = Store.pending c.store
  let hits c = c.hits
  let misses c = c.misses
  let save c = Store.save c.store

  let load bytes =
    Result.map of_store (Store.load ~kind ~schema:schema_version bytes)

  let save_file path c = Store.save_file path c.store

  (* A missing or damaged cache file is not an error condition for the
     pipeline — it just means a cold start. *)
  let load_file path =
    of_store (Store.load_file ~kind ~schema:schema_version path)

  let stats c =
    Printf.sprintf "ted-cache: %d entries, %d hits / %d misses this run"
      (size c) c.hits c.misses
end

let stats db =
  let raw = M.encode (to_msgpack db) in
  let packed = Sv_svz.Svz.compress raw in
  let nodes =
    List.fold_left
      (fun acc u ->
        acc + List.fold_left (fun a (_, t) -> a + Tree.size t) 0 u.ur_trees)
      0 db.db_units
  in
  Printf.sprintf "%s/%s: %d units, %d tree nodes, %d B raw, %d B compressed (%.2fx)"
    db.db_app db.db_model (List.length db.db_units) nodes (String.length raw)
    (String.length packed)
    (float_of_int (String.length raw) /. float_of_int (max 1 (String.length packed)))
