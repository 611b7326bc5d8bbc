module M = Sv_msgpack.Msgpack

(* Bump when any indexing stage (preprocess, parse, lowering, inlining,
   interpreter-driven coverage, or the serialised payload layout) changes
   meaning: stale payloads must never decode as current ones. Version 3
   split each codebase into a trees record and a separate run record
   (coverage and verdict), and dropped the run flag from the key, so a
   version-2 file loads as a cold start. *)
let pipeline_version = 3

type cache = {
  store : Store.t;  (* 16-byte key -> encoded payload *)
  mutable hits : int;
  mutable misses : int;
}

let kind = 'I'
let of_store store = { store; hits = 0; misses = 0 }
let create () = of_store (Store.create ~kind ~schema:pipeline_version)

(* The key commits to everything that can change an indexing result: the
   sources themselves (the caller's digest spans file names and contents),
   the preprocessor define set, the language dialect, and the pipeline
   version. Any of them changing yields a fresh key, so invalidation is
   automatic and stale entries are merely unreachable. *)
let key ?(version = pipeline_version) ~source_digest ~defines ~dialect () =
  Digest.string
    (M.encode
       (M.Arr
          [
            M.Int version;
            M.Bin source_digest;
            M.Arr (List.map (fun d -> M.Str d) defines);
            M.Str dialect;
          ]))

let find c k =
  match Store.find c.store k with
  | Some payload ->
      c.hits <- c.hits + 1;
      Some payload
  | None ->
      c.misses <- c.misses + 1;
      None

let valid_entry k payload = String.length k = 16 && String.length payload > 0

let add c k payload =
  if valid_entry k payload then ignore (Store.add c.store k payload)

(* Same defensive posture as [Ted_cache.merge]: entries may arrive from a
   faulted worker pipe or a twice-shipped degraded batch, so malformed
   ones are dropped and existing keys are never overwritten — merging the
   same batch twice is a no-op. *)
let merge c entries = List.iter (fun (k, payload) -> add c k payload) entries
let size c = Store.size c.store
let pending c = Store.pending c.store
let hits c = c.hits
let misses c = c.misses
let save c = Store.save c.store

let load bytes =
  Result.map of_store (Store.load ~kind ~schema:pipeline_version bytes)

let save_file path c = Store.save_file path c.store

(* A missing or damaged cache file just means a cold start. *)
let load_file path =
  of_store (Store.load_file ~kind ~schema:pipeline_version path)

let stats c =
  Printf.sprintf "index-cache: %d entries, %d hits / %d misses this run"
    (size c) c.hits c.misses
