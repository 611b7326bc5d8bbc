(* Tests for Sv_db: compile_commands.json handling and the Codebase DB
   round-trip (msgpack + compression). *)

module Compdb = Sv_db.Compdb
module Cdb = Sv_db.Codebase_db
module Tree = Sv_tree.Tree
module Label = Sv_tree.Label

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let sample_json =
  {|[
  {"directory": "/build", "file": "stream.cpp",
   "arguments": ["clang++", "-O3", "-DUSE_GPU", "-DN=1024", "-Iinclude", "-I", "extra", "stream.cpp"]},
  {"directory": "/build", "file": "kernels.f90",
   "command": "gfortran -O2 kernels.f90"}
]|}

let test_compdb_parse () =
  match Compdb.parse sample_json with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ a; b ] ->
      checks "file" "stream.cpp" a.Compdb.file;
      checks "dir" "/build" a.Compdb.directory;
      checki "args" 8 (List.length a.Compdb.arguments);
      checks "command split" "gfortran" (List.hd b.Compdb.arguments)
  | Ok _ -> Alcotest.fail "expected two entries"

let test_compdb_defines () =
  match Compdb.parse sample_json with
  | Ok (a :: _) ->
      Alcotest.(check (list (pair string string)))
        "defines" [ ("USE_GPU", "1"); ("N", "1024") ] (Compdb.defines a)
  | _ -> Alcotest.fail "parse failed"

let test_compdb_includes () =
  match Compdb.parse sample_json with
  | Ok (a :: _) ->
      Alcotest.(check (list string)) "includes" [ "include"; "extra" ] (Compdb.include_dirs a)
  | _ -> Alcotest.fail "parse failed"

let test_compdb_language () =
  match Compdb.parse sample_json with
  | Ok [ a; b ] ->
      checkb "cpp" true (Compdb.language a = `C);
      checkb "fortran" true (Compdb.language b = `Fortran)
  | _ -> Alcotest.fail "parse failed"

let test_compdb_roundtrip () =
  match Compdb.parse sample_json with
  | Ok entries -> (
      match Compdb.parse (Compdb.to_json_string entries) with
      | Ok entries' -> checkb "round-trip" true (entries = entries')
      | Error e -> Alcotest.failf "re-parse failed: %s" e)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_compdb_errors () =
  checkb "not array" true (Result.is_error (Compdb.parse "{}"));
  checkb "missing fields" true (Result.is_error (Compdb.parse {|[{"file": "x"}]|}));
  checkb "bad json" true (Result.is_error (Compdb.parse "[{"))

(* --- codebase db --- *)

let gen_label =
  QCheck.Gen.(
    map2
      (fun kind text -> Label.v ~text ("k" ^ string_of_int kind))
      (int_bound 5) (string_size (int_bound 6)))

let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 8) (fix (fun self n ->
        if n = 0 then map Tree.leaf gen_label
        else map2 Tree.node gen_label (list_size (int_bound 3) (self (n / 2))))))

let arb_tree = QCheck.make gen_tree

let prop_tree_codec_roundtrip =
  QCheck.Test.make ~name:"tree msgpack codec round-trip" ~count:300 arb_tree (fun t ->
      match Cdb.tree_of_msgpack (Cdb.tree_to_msgpack t) with
      | Ok t' -> Tree.equal (fun a b -> a = b) t t'
      | Error _ -> false)

let sample_db () =
  let tree =
    Tree.node
      (Label.v ~loc:(Sv_util.Loc.make ~file:"m.cpp" ~line:1 ~col:0) "tunit")
      [ Tree.leaf (Label.v ~text:"+" "binary") ]
  in
  {
    Cdb.db_app = "tealeaf";
    db_model = "sycl-usm";
    db_units =
      [
        {
          Cdb.ur_file = "m.cpp";
          ur_deps = [ "sycl.h" ];
          ur_sloc = 120;
          ur_lloc = 95;
          ur_lines = [ "int main() {"; "}" ];
          ur_trees = [ ("t_sem", tree); ("t_src", tree) ];
        };
      ];
  }

let test_db_roundtrip () =
  let db = sample_db () in
  match Cdb.load (Cdb.save db) with
  | Ok db' -> checkb "identical" true (db = db')
  | Error e -> Alcotest.failf "load failed: %s" e

let test_db_corruption () =
  let bytes = Cdb.save (sample_db ()) in
  checkb "garbage rejected" true (Result.is_error (Cdb.load "not a database"));
  checkb "truncation rejected" true
    (Result.is_error (Cdb.load (String.sub bytes 0 (String.length bytes / 2))))

let test_db_stats () =
  let s = Cdb.stats (sample_db ()) in
  checkb "mentions app/model" true
    (Sv_util.Xstring.starts_with ~prefix:"tealeaf/sycl-usm" s)

(* --- TED cache --- *)

module Tc = Cdb.Ted_cache

let test_ted_cache_digest_loc_blind () =
  let t ~file = Tree.leaf (Label.v ~text:"x" ~loc:(Sv_util.Loc.make ~file ~line:3 ~col:1) "call") in
  checkb "digest ignores locations" true (Tc.digest (t ~file:"a.cpp") = Tc.digest (t ~file:"b.cpp"));
  checkb "digest sees text" false
    (Tc.digest (t ~file:"a.cpp") = Tc.digest (Tree.leaf (Label.v ~text:"y" "call")))

let test_ted_cache_find_symmetric () =
  let c = Tc.create () in
  Tc.add c "aaaa" "bbbb" 7;
  checkb "forward" true (Tc.find c "aaaa" "bbbb" = Some 7);
  checkb "reversed" true (Tc.find c "bbbb" "aaaa" = Some 7);
  checkb "absent" true (Tc.find c "aaaa" "cccc" = None);
  checki "hits" 2 (Tc.hits c);
  checki "misses" 1 (Tc.misses c);
  checkb "mem reversed" true (Tc.mem c "bbbb" "aaaa");
  checkb "mem absent" false (Tc.mem c "aaaa" "cccc");
  checki "mem counts no hit" 2 (Tc.hits c);
  checki "mem counts no miss" 1 (Tc.misses c);
  Tc.add c "bbbb" "aaaa" 99;
  checki "re-adding a pair keeps one entry" 1 (Tc.size c);
  checkb "first value wins" true (Tc.find c "aaaa" "bbbb" = Some 7)

let gen_cache_entries =
  QCheck.Gen.(
    list_size (int_bound 40)
      (triple (string_size (return 16)) (string_size (return 16)) (int_bound 10_000)))

let arb_cache_entries = QCheck.make gen_cache_entries

let prop_ted_cache_roundtrip =
  QCheck.Test.make ~name:"ted cache artifact round-trip" ~count:200 arb_cache_entries
    (fun entries ->
      let c = Tc.create () in
      List.iter (fun (a, b, d) -> Tc.add c a b d) entries;
      match Tc.load (Tc.save c) with
      | Error _ -> false
      | Ok c' ->
          Tc.size c' = Tc.size c
          && List.for_all (fun (a, b, _) -> Tc.find c' a b = Tc.find c a b) entries
          (* sorted serialisation: contents determine the bytes *)
          && Tc.save c' = Tc.save c)

let prop_ted_cache_truncation =
  QCheck.Test.make ~name:"truncated cache artifact is rejected" ~count:200
    QCheck.(pair arb_cache_entries (int_bound 100_000))
    (fun (entries, cut_seed) ->
      let c = Tc.create () in
      List.iter (fun (a, b, d) -> Tc.add c a b d) entries;
      let art = Tc.save c in
      let cut = cut_seed mod String.length art in
      Result.is_error (Tc.load (String.sub art 0 cut)))

(* --- index cache --- *)

module Ic = Sv_db.Index_cache

let ic_key ?version ?(digest = String.make 16 'd') ?(defines = [ "N=8" ])
    ?(dialect = "minic") () =
  Ic.key ?version ~source_digest:digest ~defines ~dialect ()

let test_index_cache_key_invalidation () =
  let base = ic_key () in
  checkb "deterministic" true (ic_key () = base);
  checki "16-byte key" 16 (String.length base);
  checkb "source digest changes key" false
    (ic_key ~digest:(String.make 16 'e') () = base);
  checkb "defines change key" false (ic_key ~defines:[ "N=9" ] () = base);
  checkb "define order is significant" false
    (ic_key ~defines:[ "A=1"; "B=2" ] () = ic_key ~defines:[ "B=2"; "A=1" ] ());
  checkb "dialect changes key" false (ic_key ~dialect:"minif" () = base);
  checkb "pipeline version changes key" false
    (ic_key ~version:(Ic.pipeline_version + 1) () = base)

let test_index_cache_add_defensive () =
  let c = Ic.create () in
  let k = ic_key () in
  Ic.add c k "payload-1";
  checki "stored" 1 (Ic.size c);
  (* a second writer for the same key (two processes racing on a shared
     cache file) must not clobber the first result *)
  Ic.add c k "payload-2";
  checkb "never overwrites" true (Ic.find c k = Some "payload-1");
  Ic.add c "short-key" "x";
  Ic.add c (String.make 16 'k') "";
  checki "malformed entries dropped" 1 (Ic.size c);
  checki "hits counted" 1 (Ic.hits c);
  checkb "miss counted" true (Ic.find c (ic_key ~dialect:"minif" ()) = None);
  checki "misses counted" 1 (Ic.misses c)

let test_index_cache_load_file_missing () =
  let c = Ic.load_file "/nonexistent/dir/index.cache" in
  checki "missing file is a cold start" 0 (Ic.size c)

let gen_ic_entries =
  QCheck.Gen.(
    list_size (int_bound 40)
      (pair (string_size (return 16)) (string_size (int_range 1 64))))

let arb_ic_entries = QCheck.make gen_ic_entries

let prop_index_cache_roundtrip =
  QCheck.Test.make ~name:"index cache artifact round-trip" ~count:200
    arb_ic_entries (fun entries ->
      let c = Ic.create () in
      List.iter (fun (k, v) -> Ic.add c k v) entries;
      match Ic.load (Ic.save c) with
      | Error _ -> false
      | Ok c' ->
          Ic.size c' = Ic.size c
          && List.for_all (fun (k, _) -> Ic.find c' k = Ic.find c k) entries
          (* sorted serialisation: contents determine the bytes *)
          && Ic.save c' = Ic.save c)

let prop_index_cache_truncation =
  QCheck.Test.make ~name:"truncated index cache artifact is rejected" ~count:200
    QCheck.(pair arb_ic_entries (int_bound 100_000))
    (fun (entries, cut_seed) ->
      let c = Ic.create () in
      List.iter (fun (k, v) -> Ic.add c k v) entries;
      let art = Ic.save c in
      let cut = cut_seed mod String.length art in
      Result.is_error (Ic.load (String.sub art 0 cut)))

(* --- metric cache (persisted VP-tree indexes) --- *)

module Mc = Sv_db.Metric_cache
module Vp = Sv_metric.Vptree

let mc_key ?version ?(digest = String.make 16 'd') ?(metric = "T_sem")
    ?(variant = "") () =
  Mc.key ?version ~corpus_digest:digest ~metric ~variant ()

(* [c]'s entries plus raw payloads, as a damaged or foreign cache file
   would hold them: planted through the store image, since [Mc.add]
   only stores encoded trees. *)
let mc_plant c entries =
  match Sv_db.Store.load ~kind:'M' ~schema:Mc.metric_schema (Mc.save c) with
  | Error e -> Alcotest.fail e
  | Ok s -> (
      List.iter (fun (k, v) -> ignore (Sv_db.Store.add s k v)) entries;
      match Mc.load (Sv_db.Store.save s) with
      | Ok c -> c
      | Error e -> Alcotest.fail e)

let test_metric_cache_key_invalidation () =
  let base = mc_key () in
  checkb "deterministic" true (mc_key () = base);
  checki "16-byte key" 16 (String.length base);
  checkb "corpus digest changes key" false
    (mc_key ~digest:(String.make 16 'e') () = base);
  checkb "metric changes key" false (mc_key ~metric:"T_src" () = base);
  checkb "variant changes key" false (mc_key ~variant:"+pp" () = base);
  checkb "schema version changes key" false
    (mc_key ~version:(Mc.metric_schema + 1) () = base)

(* A line metric over deterministic pseudo-random coordinates: cheap,
   a true metric, and enough spread to build non-trivial trees. *)
let mc_coords n =
  Array.init n (fun i -> (i * 2654435761) land 0xffff)

let mc_dist coords i j = abs (coords.(i) - coords.(j))

let mc_tree n =
  let coords = mc_coords n in
  (coords, Vp.build ~dist:(mc_dist coords) (Array.init n (fun i -> i)))

let knn coords t q k = fst (Vp.nearest ~dist:(fun i -> abs (coords.(i) - q)) ~k t)

let test_metric_cache_tree_roundtrip () =
  let n = 64 in
  let coords, t = mc_tree n in
  let c = Mc.create () in
  let k = mc_key () in
  Mc.add c k t;
  checki "stored" 1 (Mc.size c);
  (match Mc.find c k with
  | None -> Alcotest.fail "own entry must decode"
  | Some t' ->
      checki "size survives" n (Vp.size t');
      checki "decoded tree reports zero build evals" 0 (Vp.build_evals t');
      checkb "elements dense" true
        (Vp.elements t' = Array.init n (fun i -> i));
      (* structural identity: the decoded index answers queries with
         exactly the same hits as the one that was encoded *)
      List.iter
        (fun q ->
          checkb "same k-NN answers" true
            (knn coords t' q 5 = knn coords t q 5))
        [ 0; 1; 7777; 65535; 30000 ]);
  (* adding again never overwrites, and artifacts are deterministic *)
  Mc.add c k t;
  checki "never duplicated" 1 (Mc.size c);
  match Mc.load (Mc.save c) with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok c' ->
      checki "size round-trips" 1 (Mc.size c');
      checkb "sorted serialisation: contents determine bytes" true
        (Mc.save c' = Mc.save c);
      checkb "entry decodes after reload" true (Mc.find c' k <> None)

let test_metric_cache_corrupt_payload () =
  let _, t = mc_tree 32 in
  let c = Mc.create () in
  Mc.add c (mc_key ()) t;
  (* a payload that is valid svz/msgpack framing but not a valid tree
     must degrade to a miss, never a crash or a wrong answer *)
  let garbage_key = mc_key ~metric:"garbage" () in
  let c = mc_plant c [ (garbage_key, "not msgpack at all") ] in
  checki "the raw entry is kept" 2 (Mc.size c);
  checkb "malformed payload is a miss" true (Mc.find c garbage_key = None);
  checkb "good entry unaffected" true (Mc.find c (mc_key ()) <> None);
  (* duplicate-id / mangled reprs are caught by the validation stack *)
  let mangled =
    let repr = Array.to_list (Vp.to_repr t) in
    Sv_msgpack.Msgpack.encode
      (Sv_msgpack.Msgpack.Arr
         (List.mapi
            (fun i x ->
              Sv_msgpack.Msgpack.Int (if i = 2 then x + 1_000_000 else x))
            (List.map (fun x -> x) repr)))
  in
  let mangled_key = mc_key ~metric:"mangled" () in
  let c = mc_plant c [ (mangled_key, mangled) ] in
  checkb "mangled repr is a miss" true (Mc.find c mangled_key = None)

let prop_metric_cache_truncation =
  QCheck.Test.make ~name:"truncated metric cache artifact is rejected"
    ~count:100
    QCheck.(pair (int_range 1 80) (int_bound 100_000))
    (fun (n, cut_seed) ->
      let _, t = mc_tree n in
      let c = Mc.create () in
      Mc.add c (mc_key ()) t;
      let art = Mc.save c in
      let cut = cut_seed mod String.length art in
      Result.is_error (Mc.load (String.sub art 0 cut)))

let prop_metric_cache_bitflip =
  QCheck.Test.make ~name:"bit-flipped metric cache artifact never crashes"
    ~count:100
    QCheck.(pair (int_range 1 80) (pair small_nat small_nat))
    (fun (n, (pos_seed, bit)) ->
      let _, t = mc_tree n in
      let c = Mc.create () in
      let k = mc_key () in
      Mc.add c k t;
      let art = Bytes.of_string (Mc.save c) in
      let pos = pos_seed mod Bytes.length art in
      Bytes.set art pos
        (Char.chr (Char.code (Bytes.get art pos) lxor (1 lsl (bit mod 8))));
      match Mc.load (Bytes.to_string art) with
      | Error _ -> true (* svz checksum or framing caught it *)
      | Ok c' -> (
          (* decodable-but-different: the payload validators must still
             only ever yield a structurally sound tree *)
          match Mc.find c' k with
          | None -> true
          | Some t' -> Vp.elements t' = Array.init (Vp.size t') (fun i -> i)))

let test_metric_cache_load_file_missing () =
  let c = Mc.load_file "/nonexistent/dir/metric.cache" in
  checki "missing file is a cold start" 0 (Mc.size c);
  let path = Filename.temp_file "sv_mc_corrupt" ".svz" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "definitely not an svz artifact";
  close_out oc;
  let c = Mc.load_file path in
  checki "corrupt file is a cold start" 0 (Mc.size c)

let test_db_pipeline_integration () =
  (* a real indexed codebase survives the save/load cycle *)
  let cb =
    List.find
      (fun (c : Sv_corpus.Emit.codebase) -> c.Sv_corpus.Emit.model = "omp")
      (Sv_corpus.Babelstream.all ())
  in
  let ix = Sv_core.Pipeline.index cb in
  let db = Sv_core.Pipeline.to_db ix in
  match Cdb.load (Cdb.save db) with
  | Ok db' ->
      checkb "round-trips" true (db = db');
      checkb "has coverage variants" true
        (List.exists
           (fun (u : Cdb.unit_record) -> List.mem_assoc "t_sem+cov" u.Cdb.ur_trees)
           db'.Cdb.db_units)
  | Error e -> Alcotest.failf "load failed: %s" e

(* --- the append-only store behind all three caches --- *)

module Store = Sv_db.Store

let st_kind = 'X'
let st_create () = Store.create ~kind:st_kind ~schema:7
let st_load = Store.load ~kind:st_kind ~schema:7
let st_load_file = Store.load_file ~kind:st_kind ~schema:7

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let with_temp f =
  let path = Filename.temp_file "sv_store" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let st_of entries =
  let t = st_create () in
  List.iter (fun (k, v) -> ignore (Store.add t k v)) entries;
  t

(* First occurrence of each key, which is what a store must hold. *)
let first_wins entries =
  List.fold_left
    (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
    [] entries

(* The documented record layout, built by hand: lets the fuzzers plant
   records whose checksums pass but whose content does not. *)
let check4 s = String.sub (Digest.string s) 0 4

let record key packed =
  let b = Buffer.create 64 in
  Buffer.add_char b 'R';
  Buffer.add_uint8 b (String.length key);
  Buffer.add_string b key;
  Buffer.add_int32_be b (Int32.of_int (String.length packed));
  Buffer.add_string b packed;
  let body = Buffer.contents b in
  body ^ check4 body

let commit n =
  let b = Bytes.create 5 in
  Bytes.set b 0 'C';
  Bytes.set_int32_be b 1 (Int32.of_int n);
  let body = Bytes.to_string b in
  body ^ check4 body

let st_header () = String.sub (Store.save (st_create ())) 0 10

(* A metric cache from before schema 2, laid out by hand: a header
   stamped kind 'M', schema 1, and records whose payloads hold the old
   VP-tree repr, where every node carried a [built] word after its
   count (a fresh build left built = count). *)
let schema1_repr t =
  let r = Vp.to_repr t in
  let out = ref [ r.(0) ] and pos = ref 1 in
  let copy n =
    for i = 0 to n - 1 do
      out := r.(!pos + i) :: !out
    done;
    pos := !pos + n
  in
  (* current layout: leaf [0; len; ids…], node [1; v; mu; count; …] *)
  let rec node () =
    if r.(!pos) = 0 then copy (2 + r.(!pos + 1))
    else begin
      let count = r.(!pos + 3) in
      copy 4;
      out := count :: !out;
      node ();
      node ()
    end
  in
  node ();
  Array.of_list (List.rev !out)

let mc_payload repr =
  Sv_msgpack.Msgpack.(encode (Arr (Array.to_list (Array.map (fun i -> Int i) repr))))

let schema1_image keys payload =
  let h = Bytes.create 10 in
  Bytes.blit_string "SVST" 0 h 0 4;
  Bytes.set h 4 '\001';
  Bytes.set h 5 'M';
  Bytes.set_int32_be h 6 1l;
  Bytes.to_string h
  ^ String.concat "" (List.map (fun k -> record k (Sv_svz.Svz.compress payload)) keys)
  ^ commit (List.length keys)

let test_metric_cache_schema1_is_cold () =
  let _, t = mc_tree 64 in
  let old = mc_payload (schema1_repr t) in
  checkb "the old layout is longer" true
    (Array.length (schema1_repr t) > Array.length (Vp.to_repr t));
  let old_key = mc_key ~version:1 () and cur_key = mc_key () in
  let image = schema1_image [ old_key; cur_key ] old in
  checkb "a well-formed schema-1 store" true
    (match Store.load ~kind:'M' ~schema:1 image with
    | Ok s -> Store.size s = 2
    | Error _ -> false);
  checkb "strict load refuses schema 1" true (Result.is_error (Mc.load image));
  with_temp @@ fun path ->
  write_file path image;
  let c = Mc.load_file path in
  checki "schema-1 file loads empty" 0 (Mc.size c);
  checkb "schema-1 key misses" true (Mc.find c old_key = None);
  checkb "current key misses" true (Mc.find c cur_key = None);
  checki "every find a miss" 2 (Mc.misses c);
  checki "no hit" 0 (Mc.hits c);
  (* even planted under a current key the old payload does not decode:
     the [built] word lands where the next node's tag is read *)
  let c = mc_plant c [ (cur_key, old) ] in
  checkb "schema-1 payload is a miss" true (Mc.find c cur_key = None)

let test_store_empty_and_missing () =
  checki "missing file is empty" 0 (Store.size (st_load_file "/nonexistent/dir/x.log"));
  with_temp @@ fun path ->
  checki "0-byte file is empty" 0 (Store.size (st_load_file path));
  (* an empty store with nothing pending never touches its file *)
  Store.save_file path (st_load_file path);
  checki "nothing written" 0 (String.length (read_file path));
  checkb "strict load rejects an empty string" true (Result.is_error (st_load ""));
  checkb "strict load rejects a bare header" true (Result.is_error (st_load (st_header ())));
  checkb "empty image round-trips" true
    (match st_load (Store.save (st_create ())) with Ok t -> Store.size t = 0 | Error _ -> false)

let test_store_append_only () =
  with_temp @@ fun path ->
  let t = st_of [ ("k1", "one"); ("k2", "two") ] in
  Store.save_file path t;
  let first = read_file path in
  checks "a first save into an empty file is the canonical image" (Store.save t) first;
  checki "nothing pending after a save" 0 (Store.pending t);
  let t = st_load_file path in
  checkb "decoded on demand" true (Store.find t "k2" = Some "two");
  checkb "first wins on add" false (Store.add t "k1" "uno");
  checkb "new key added" true (Store.add t "k3" "three");
  checki "one pending" 1 (Store.pending t);
  Store.save_file path t;
  let second = read_file path in
  checkb "the earlier bytes are untouched" true
    (String.length second > String.length first
    && String.sub second 0 (String.length first) = first);
  let t' = st_load_file path in
  checki "union reloads" 3 (Store.size t');
  checkb "appended entry" true (Store.find t' "k3" = Some "three");
  checkb "first value kept" true (Store.find t' "k1" = Some "one")

let test_store_noop_save () =
  with_temp @@ fun path ->
  Store.save_file path (st_of [ ("a", "alpha"); ("b", "beta") ]);
  Unix.utimes path 1_000_000.0 1_000_000.0;
  let before = read_file path in
  let t = st_load_file path in
  ignore (Store.find t "a");
  checkb "re-adding a present key is refused" false (Store.add t "b" "beta");
  Store.save_file path t;
  checks "bytes unchanged" before (read_file path);
  checkb "mtime unchanged" true ((Unix.stat path).Unix.st_mtime = 1_000_000.0)

let test_store_other_writer_folded_in () =
  (* two handles on one file: the second save folds the first's entries
     in, and a key both added resolves to the file's (first) copy *)
  with_temp @@ fun path ->
  let a = st_load_file path and b = st_load_file path in
  ignore (Store.add a "shared" "from-a");
  ignore (Store.add a "only-a" "a");
  ignore (Store.add b "shared" "from-b");
  ignore (Store.add b "only-b" "b");
  Store.save_file path a;
  Store.save_file path b;
  let t = st_load_file path in
  checki "union of both" 3 (Store.size t);
  checkb "first writer wins" true (Store.find t "shared" = Some "from-a");
  checkb "b sees a's entry after its save" true (Store.find b "only-a" = Some "a");
  checkb "b's copy replaced by the file's" true (Store.find b "shared" = Some "from-a");
  checkb "the whole file is clean" true (Result.is_ok (st_load (read_file path)))

let test_store_old_format_replaced () =
  (* a whole-file SVZ1 cache from before the store: a cold start that is
     rewritten, never appended to *)
  with_temp @@ fun path ->
  write_file path (Sv_svz.Svz.compress "an old whole-file cache artifact");
  let t = st_load_file path in
  checki "old format is a cold start" 0 (Store.size t);
  ignore (Store.add t "k" "v");
  Store.save_file path t;
  checks "replaced by the canonical image" (Store.save t) (read_file path)

let test_store_torn_tail_compacts () =
  with_temp @@ fun path ->
  let t = st_of [ ("k1", "one"); ("k2", "two") ] in
  let image = Store.save t in
  (* a half-written second batch after the first *)
  let torn = record "k3" (Sv_svz.Svz.compress "three") in
  write_file path (image ^ String.sub torn 0 (String.length torn / 2));
  let t = st_load_file path in
  checki "torn tail ignored, earlier records load" 2 (Store.size t);
  checkb "strict load rejects the torn file" true
    (Result.is_error (st_load (read_file path)));
  (* a repair save rewrites even with nothing new *)
  Store.save_file path t;
  checks "compacted to the canonical image" image (read_file path)

let test_store_uncommitted_batch_ignored () =
  (* whole records without their commit are a torn batch too *)
  with_temp @@ fun path ->
  let image = Store.save (st_of [ ("k1", "one") ]) in
  write_file path (image ^ record "k2" (Sv_svz.Svz.compress "two"));
  let t = st_load_file path in
  checki "uncommitted record ignored" 1 (Store.size t);
  checkb "absent" true (Store.find t "k2" = None)

let test_store_dead_bytes_compact () =
  (* duplicate records (writers without a lock) are dead bytes; once an
     append would take the file past twice its live bytes, the save
     compacts instead *)
  with_temp @@ fun path ->
  let packed = Sv_svz.Svz.compress (String.make 200 'p') in
  let dup = record "dup" packed ^ commit 1 in
  write_file path (st_header () ^ dup ^ dup ^ dup);
  let t = st_load_file path in
  checki "duplicates resolve to one entry" 1 (Store.size t);
  ignore (Store.add t "new" "n");
  Store.save_file path t;
  checks "rewritten as the canonical image" (Store.save t) (read_file path);
  checki "nothing lost" 2 (Store.size (st_load_file path))

let test_store_corrupt_payload_is_absent () =
  (* a record that passes its checksum but holds a damaged svz payload —
     here a length header claiming about 2^55 bytes — reads as absent *)
  let bad = "SVZ1\xff\xff\xff\xff\xff\xff\xff\x3f\x00\x78" in
  match st_load (st_header () ^ record "k" bad ^ commit 1) with
  | Error e -> Alcotest.failf "checksummed record rejected: %s" e
  | Ok t -> checkb "undecodable payload is a miss" true (Store.find t "k" = None)

let gen_store_entries =
  QCheck.Gen.(
    list_size (int_bound 30)
      (pair (string_size (int_range 1 20)) (string_size (int_bound 200))))

let arb_store_entries = QCheck.make gen_store_entries

let prop_store_roundtrip =
  QCheck.Test.make ~name:"store image round-trip" ~count:200 arb_store_entries
    (fun entries ->
      let t = st_of entries in
      match st_load (Store.save t) with
      | Error _ -> false
      | Ok t' ->
          Store.size t' = Store.size t
          && List.for_all (fun (k, v) -> Store.find t' k = Some v) (first_wins entries)
          && Store.save t' = Store.save t)

let prop_store_truncation =
  QCheck.Test.make ~name:"truncated store image is rejected, log keeps whole batches"
    ~count:200
    QCheck.(triple arb_store_entries arb_store_entries (int_bound 100_000))
    (fun (e1, e2, cut_seed) ->
      with_temp @@ fun path ->
      let t = st_of e1 in
      Store.save_file path t;
      let t = st_load_file path in
      List.iter (fun (k, v) -> ignore (Store.add t k v)) e2;
      Store.save_file path t;
      let file = read_file path in
      (* with no entries at all no save writes a byte: the file is empty *)
      let cut = if file = "" then 0 else cut_seed mod String.length file in
      let image = Store.save t in
      let strict_ok =
        Result.is_error (st_load (String.sub image 0 (cut mod String.length image)))
      in
      write_file path (String.sub file 0 cut);
      let t' = st_load_file path in
      let all = first_wins (e1 @ e2) and first = first_wins e1 in
      (* never a torn entry: each batch is there whole or not at all *)
      strict_ok
      && List.for_all
           (fun (k, v) -> match Store.find t' k with None -> true | Some v' -> v = v')
           all
      && (Store.size t' = 0 || Store.size t' = List.length first
         || Store.size t' = List.length all))

let prop_store_bitflip =
  QCheck.Test.make ~name:"bit-flipped store never yields a wrong entry" ~count:200
    QCheck.(pair arb_store_entries (pair small_nat small_nat))
    (fun (entries, (pos_seed, bit)) ->
      with_temp @@ fun path ->
      let t = st_of entries in
      let art = Bytes.of_string (Store.save t) in
      let pos = pos_seed mod Bytes.length art in
      Bytes.set art pos (Char.chr (Char.code (Bytes.get art pos) lxor (1 lsl (bit mod 8))));
      write_file path (Bytes.to_string art);
      let t' = st_load_file path in
      Result.is_error (st_load (Bytes.to_string art))
      && List.for_all
           (fun (k, v) -> match Store.find t' k with None -> true | Some v' -> v = v')
           (first_wins entries))

(* Replace the svz length header inside a payload; the record's checksum
   is recomputed, so only the payload decoder stands between a damaged
   length and the allocation it claims. *)
let with_svz_length packed len =
  let rec skip i = if Char.code packed.[i] land 0x80 = 0 then i + 1 else skip (i + 1) in
  let rest = skip 4 in
  let b = Buffer.create 16 in
  Buffer.add_string b "SVZ1";
  let n = ref len in
  while !n >= 0x80 do
    Buffer.add_char b (Char.chr (!n land 0x7F lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n);
  Buffer.contents b ^ String.sub packed rest (String.length packed - rest)

let prop_store_length_header =
  QCheck.Test.make ~name:"store payload with a mutated length header is a miss" ~count:200
    QCheck.(pair (string_of_size (Gen.int_bound 300)) (oneof [ small_nat; int_bound (1 lsl 40); int ]))
    (fun (payload, len) ->
      let packed = with_svz_length (Sv_svz.Svz.compress payload) (abs len) in
      match st_load (st_header () ^ record "k" packed ^ commit 1) with
      | Error _ -> false
      | Ok t -> (
          match Store.find t "k" with
          | None -> true
          | Some p -> p = payload && abs len = String.length payload))

let prop_db_length_header =
  QCheck.Test.make ~name:"codebase db with a mutated length header is rejected"
    ~count:100
    QCheck.(oneof [ small_nat; int_bound (1 lsl 40); int ])
    (fun len ->
      let art = Cdb.save (sample_db ()) in
      let raw_len = String.length (Sv_svz.Svz.decompress art) in
      match Cdb.load (with_svz_length art (abs len)) with
      | Error _ -> abs len <> raw_len
      | Ok db -> db = sample_db ())

let prop_db_truncation_bitflip =
  QCheck.Test.make ~name:"truncated or bit-flipped codebase db never crashes" ~count:200
    QCheck.(pair (int_bound 100_000) (pair small_nat small_nat))
    (fun (cut_seed, (pos_seed, bit)) ->
      let art = Cdb.save (sample_db ()) in
      let cut = cut_seed mod String.length art in
      let flipped = Bytes.of_string art in
      let pos = pos_seed mod Bytes.length flipped in
      Bytes.set flipped pos
        (Char.chr (Char.code (Bytes.get flipped pos) lxor (1 lsl (bit mod 8))));
      Result.is_error (Cdb.load (String.sub art 0 cut))
      && match Cdb.load (Bytes.to_string flipped) with Error _ | Ok _ -> true)

let test_ted_cache_store_file () =
  (* the TED view round-trips through a file and appends only new pairs *)
  with_temp @@ fun path ->
  let d16 c = String.make 16 c in
  let c = Tc.load_file path in
  Tc.add c (d16 'a') (d16 'b') 7;
  Tc.save_file path c;
  let c = Tc.load_file path in
  checkb "reloaded" true (Tc.find c (d16 'b') (d16 'a') = Some 7);
  checki "warm: nothing pending" 0 (Tc.pending c);
  Tc.add c (d16 'c') (d16 'a') 3;
  checki "one pending" 1 (Tc.pending c);
  Tc.save_file path c;
  checki "both reload" 2 (Tc.size (Tc.load_file path))

(* --- lru --- *)

module Lru = Sv_db.Lru

let lru_of_strings budget = Lru.create ~budget ~size_of:String.length ()

let test_lru_eviction_order () =
  let t = lru_of_strings 30 in
  Lru.add t "a" "0123456789";
  Lru.add t "b" "0123456789";
  Lru.add t "c" "0123456789";
  (* touch [a]: it is now most recent, so pressure must take [b] *)
  checkb "hit a" true (Lru.find t "a" <> None);
  Lru.add t "d" "0123456789";
  checkb "evicted LRU tail" false (Lru.mem t "b");
  Alcotest.(check (list string))
    "recency order" [ "d"; "a"; "c" ]
    (Lru.keys_newest_first t);
  checki "evictions counted" 1 (Lru.evictions t);
  checki "bytes after eviction" 30 (Lru.bytes t)

let test_lru_size_accounting () =
  let t = lru_of_strings 100 in
  Lru.add t "a" "xxxx";
  Lru.add t "b" "yyyyyy";
  checki "bytes is the sum" 10 (Lru.bytes t);
  (* replacing a binding accounts the new size, not both *)
  Lru.add t "a" "xx";
  checki "replace reaccounts" 8 (Lru.bytes t);
  checki "replace keeps count" 2 (Lru.count t);
  Lru.remove t "b";
  checki "remove deducts" 2 (Lru.bytes t);
  Lru.remove t "nope";
  checki "missing remove is a no-op" 2 (Lru.bytes t);
  checki "removal is not an eviction" 0 (Lru.evictions t)

let test_lru_newest_survives () =
  (* one entry over budget degrades to a cache of one, never zero *)
  let t = lru_of_strings 5 in
  Lru.add t "big" "0123456789";
  checki "oversized newest resident" 1 (Lru.count t);
  checki "nothing evicted yet" 0 (Lru.evictions t);
  Lru.add t "bigger" "01234567890123456789";
  checki "older one evicted" 1 (Lru.evictions t);
  Alcotest.(check (list string))
    "newest alone survives" [ "bigger" ]
    (Lru.keys_newest_first t)

let test_lru_counters () =
  let t = lru_of_strings 100 in
  Lru.add t "a" "x";
  checkb "hit" true (Lru.find t "a" = Some "x");
  checkb "miss" true (Lru.find t "b" = None);
  checkb "mem does not touch counters" true (Lru.mem t "a");
  checki "hits" 1 (Lru.hits t);
  checki "misses" 1 (Lru.misses t)

let () =
  Alcotest.run "db"
    [
      ( "compdb",
        [
          Alcotest.test_case "parse" `Quick test_compdb_parse;
          Alcotest.test_case "defines" `Quick test_compdb_defines;
          Alcotest.test_case "includes" `Quick test_compdb_includes;
          Alcotest.test_case "language" `Quick test_compdb_language;
          Alcotest.test_case "round-trip" `Quick test_compdb_roundtrip;
          Alcotest.test_case "errors" `Quick test_compdb_errors;
        ] );
      ( "codebase-db",
        [
          Alcotest.test_case "round-trip" `Quick test_db_roundtrip;
          Alcotest.test_case "corruption" `Quick test_db_corruption;
          Alcotest.test_case "stats" `Quick test_db_stats;
          Alcotest.test_case "pipeline integration" `Quick test_db_pipeline_integration;
        ] );
      ( "ted-cache",
        [
          Alcotest.test_case "digest is loc-blind" `Quick test_ted_cache_digest_loc_blind;
          Alcotest.test_case "find is symmetric" `Quick test_ted_cache_find_symmetric;
        ] );
      ( "index-cache",
        [
          Alcotest.test_case "key invalidation" `Quick
            test_index_cache_key_invalidation;
          Alcotest.test_case "add is defensive" `Quick
            test_index_cache_add_defensive;
          Alcotest.test_case "missing file is cold start" `Quick
            test_index_cache_load_file_missing;
        ] );
      ( "metric-cache",
        [
          Alcotest.test_case "key invalidation" `Quick
            test_metric_cache_key_invalidation;
          Alcotest.test_case "tree round-trip" `Quick
            test_metric_cache_tree_roundtrip;
          Alcotest.test_case "corrupt payload degrades to miss" `Quick
            test_metric_cache_corrupt_payload;
          Alcotest.test_case "missing/corrupt file is cold start" `Quick
            test_metric_cache_load_file_missing;
          Alcotest.test_case "schema-1 image is a cold start" `Quick
            test_metric_cache_schema1_is_cold;
        ] );
      ( "store",
        [
          Alcotest.test_case "empty and missing files" `Quick test_store_empty_and_missing;
          Alcotest.test_case "saves append only" `Quick test_store_append_only;
          Alcotest.test_case "no-op save writes nothing" `Quick test_store_noop_save;
          Alcotest.test_case "another writer is folded in" `Quick
            test_store_other_writer_folded_in;
          Alcotest.test_case "old format is replaced" `Quick test_store_old_format_replaced;
          Alcotest.test_case "torn tail compacts" `Quick test_store_torn_tail_compacts;
          Alcotest.test_case "uncommitted batch ignored" `Quick
            test_store_uncommitted_batch_ignored;
          Alcotest.test_case "dead bytes compact" `Quick test_store_dead_bytes_compact;
          Alcotest.test_case "corrupt payload is absent" `Quick
            test_store_corrupt_payload_is_absent;
          Alcotest.test_case "ted view on a file" `Quick test_ted_cache_store_file;
        ] );
      ( "store-fuzz",
        List.map
          (QCheck_alcotest.to_alcotest ~speed_level:`Quick)
          [ prop_store_roundtrip; prop_store_truncation; prop_store_bitflip;
            prop_store_length_header; prop_db_length_header;
            prop_db_truncation_bitflip ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "size accounting" `Quick test_lru_size_accounting;
          Alcotest.test_case "newest survives" `Quick test_lru_newest_survives;
          Alcotest.test_case "hit/miss counters" `Quick test_lru_counters;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tree_codec_roundtrip; prop_ted_cache_roundtrip;
            prop_ted_cache_truncation; prop_index_cache_roundtrip;
            prop_index_cache_truncation; prop_metric_cache_truncation;
            prop_metric_cache_bitflip ] );
    ]
