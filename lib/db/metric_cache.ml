module M = Sv_msgpack.Msgpack
module Vptree = Sv_metric.Vptree

(* Bump when the VP-tree representation, the distance semantics feeding
   it, the payload layout or the key derivation changes meaning: stale
   indexes must never decode as current ones, and a file full of
   unreachable keys should load as a cold start and be rewritten. *)
let metric_schema = 3

type cache = {
  store : Store.t;  (* 16-byte key -> encoded repr *)
  mutable hits : int;
  mutable misses : int;
}

let kind = 'M'
let of_store store = { store; hits = 0; misses = 0 }
let create () = of_store (Store.create ~kind ~schema:metric_schema)

(* The key commits to everything that can change the persisted tree: the
   corpus digest (which itself spans every codebase's content key, in
   candidate order — ids are positional), the metric and variant names,
   and the schema version. Any of them changing yields a fresh key, so
   invalidation is automatic and stale entries are merely unreachable. *)
let key ?(version = metric_schema) ~corpus_digest ~metric ~variant () =
  Digest.string
    (M.encode
       (M.Arr
          [
            M.Int version;
            M.Bin corpus_digest;
            M.Str metric;
            M.Str variant;
          ]))

let valid_entry k payload = String.length k = 16 && String.length payload > 0

let encode_tree t =
  let repr = Vptree.to_repr t in
  M.encode (M.Arr (Array.to_list (Array.map (fun i -> M.Int i) repr)))

(* Full defensive decode: msgpack shape, then [Vptree.of_repr]'s
   structural validation, then — because ids are positional into the
   candidate array — the requirement that the element set is exactly
   0..n−1. Any failure reads as a miss, so a mangled payload costs a
   cold rebuild, never a crash or a tree whose ids point outside the
   corpus. *)
let decode_tree payload =
  match M.decode payload with
  | exception M.Decode_error _ -> None
  | M.Arr items -> (
      let ok = ref true in
      let repr =
        Array.of_list
          (List.map
             (function
               | M.Int i -> i
               | _ ->
                   ok := false;
                   0)
             items)
      in
      if not !ok then None
      else
        match Vptree.of_repr repr with
        | None -> None
        | Some t ->
            let els = Vptree.elements t in
            let dense = ref true in
            Array.iteri (fun i x -> if x <> i then dense := false) els;
            if !dense then Some t else None)
  | _ -> None

let find c k =
  match Option.bind (Store.find c.store k) decode_tree with
  | Some t ->
      c.hits <- c.hits + 1;
      Some t
  | None ->
      c.misses <- c.misses + 1;
      None

let add c k t =
  let payload = encode_tree t in
  if valid_entry k payload then ignore (Store.add c.store k payload)

(* Same defensive posture as [Index_cache.merge]: malformed entries are
   dropped and existing keys never overwritten, so merging twice is a
   no-op. Raw payloads (not trees) so merge never pays a decode. *)
let merge c entries =
  List.iter
    (fun (k, payload) ->
      if valid_entry k payload then ignore (Store.add c.store k payload))
    entries

let size c = Store.size c.store
let pending c = Store.pending c.store
let hits c = c.hits
let misses c = c.misses
let save c = Store.save c.store
let load bytes = Result.map of_store (Store.load ~kind ~schema:metric_schema bytes)
let save_file path c = Store.save_file path c.store

(* A missing or damaged cache file just means a cold start. *)
let load_file path = of_store (Store.load_file ~kind ~schema:metric_schema path)

let stats c =
  Printf.sprintf "metric-cache: %d entries, %d hits / %d misses this run"
    (size c) c.hits c.misses
