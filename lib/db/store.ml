module Svz = Sv_svz.Svz

let magic = "SVST"
let format_version = '\001'
let header_len = 10
let check_len = 4
let commit_len = 1 + 4 + check_len

(* An entry loaded from a file is kept compressed until first asked for;
   one added in this process is kept decoded and compressed only when it
   is written. [packed = ""] means "not compressed yet": svz output always
   starts with its magic, so it is never empty. *)
type entry = { mutable packed : string; mutable plain : string option }

type t = {
  kind : char;
  schema : int;
  tbl : (string, entry) Hashtbl.t;
  mutable pending : string list;  (* added since the last save, newest first *)
  mutable repair : bool;  (* the file has a bad tail or a foreign header *)
}

let create ~kind ~schema =
  { kind; schema; tbl = Hashtbl.create 64; pending = []; repair = false }

let header t =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 format_version;
  Bytes.set b 5 t.kind;
  Bytes.set_int32_be b 6 (Int32.of_int t.schema);
  Bytes.unsafe_to_string b

let check s off len = String.sub (Digest.substring s off len) 0 check_len
let u32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

let add_checked b body =
  Buffer.add_string b body;
  Buffer.add_string b (check body 0 (String.length body))

let add_record b key packed =
  let r = Buffer.create (String.length key + String.length packed + 6) in
  Buffer.add_char r 'R';
  Buffer.add_uint8 r (String.length key);
  Buffer.add_string r key;
  Buffer.add_int32_be r (Int32.of_int (String.length packed));
  Buffer.add_string r packed;
  add_checked b (Buffer.contents r)

let add_commit b count =
  let r = Bytes.create 5 in
  Bytes.set r 0 'C';
  Bytes.set_int32_be r 1 (Int32.of_int count);
  add_checked b (Bytes.unsafe_to_string r)

let record_len key packed = 1 + 1 + String.length key + 4 + String.length packed + check_len

(* --- scanning a log ---------------------------------------------------- *)

type scan = {
  entries : (string * string) list;  (* committed (key, packed), first-wins, file order *)
  good : int;  (* offset just past the last commit *)
  batches : int;
  live : int;  (* header + first-wins records + one commit *)
}

(* Walk the records after a matching header. The first record that is
   short or fails its checksum, or a commit whose count disagrees with its
   batch, ends the scan; records of a batch count only once its commit
   has been read. *)
let scan t buf =
  let n = String.length buf in
  if n < header_len || not (String.equal (String.sub buf 0 header_len) (header t))
  then Error "not a store of this kind and schema"
  else begin
    let seen = Hashtbl.create 64 in
    let entries = ref [] and batch = ref [] and nbatch = ref 0 in
    let good = ref header_len and batches = ref 0 in
    let live = ref (header_len + commit_len) in
    let pos = ref header_len and stop = ref false in
    while (not !stop) && !pos < n do
      let p = !pos in
      match buf.[p] with
      | 'R' when p + 2 <= n ->
          let klen = Char.code buf.[p + 1] in
          let at = p + 2 + klen in
          if at + 4 > n then stop := true
          else begin
            let body = at + 4 + u32 buf at in
            if body + check_len > n
               || not (String.equal (check buf p (body - p)) (String.sub buf body check_len))
            then stop := true
            else begin
              batch := (String.sub buf (p + 2) klen, String.sub buf (at + 4) (body - at - 4))
                       :: !batch;
              incr nbatch;
              pos := body + check_len
            end
          end
      | 'C' when p + commit_len <= n ->
          if u32 buf (p + 1) <> !nbatch
             || not (String.equal (check buf p 5) (String.sub buf (p + 5) check_len))
          then stop := true
          else begin
            List.iter
              (fun ((k, packed) as e) ->
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.add seen k ();
                  entries := e :: !entries;
                  live := !live + record_len k packed
                end)
              (List.rev !batch);
            batch := [];
            nbatch := 0;
            incr batches;
            pos := p + commit_len;
            good := !pos
          end
      | _ -> stop := true
    done;
    Ok { entries = List.rev !entries; good = !good; batches = !batches; live = !live }
  end

let absorb t entries =
  List.iter
    (fun (k, packed) ->
      if not (Hashtbl.mem t.tbl k) then Hashtbl.add t.tbl k { packed; plain = None })
    entries

(* --- the table --------------------------------------------------------- *)

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some { plain = Some p; _ } -> Some p
  | Some e -> (
      match Svz.decompress e.packed with
      | p ->
          e.plain <- Some p;
          Some p
      | exception Svz.Corrupt _ ->
          Hashtbl.remove t.tbl k;
          t.repair <- true;
          None)

let add t k payload =
  if String.length k > 255 || Hashtbl.mem t.tbl k then false
  else begin
    Hashtbl.add t.tbl k { packed = ""; plain = Some payload };
    t.pending <- k :: t.pending;
    true
  end

let size t = Hashtbl.length t.tbl
let pending t = List.length t.pending

let packed e =
  if e.packed = "" then e.packed <- Svz.compress (Option.get e.plain);
  e.packed

let batch t keys =
  let b = Buffer.create 4096 in
  List.iter (fun k -> add_record b k (packed (Hashtbl.find t.tbl k))) keys;
  add_commit b (List.length keys);
  Buffer.contents b

let save t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
  header t ^ batch t (List.sort String.compare keys)

let load ~kind ~schema bytes =
  let t = create ~kind ~schema in
  match scan t bytes with
  | Error e -> Error e
  | Ok s when s.good <> String.length bytes -> Error "torn or corrupt record"
  | Ok s when s.batches = 0 -> Error "no committed batch"
  | Ok s ->
      absorb t s.entries;
      Ok t

let load_file ~kind ~schema path =
  let t = create ~kind ~schema in
  (match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ()
  | "" -> ()
  | buf -> (
      match scan t buf with
      | Error _ -> t.repair <- true
      | Ok s ->
          absorb t s.entries;
          if s.good <> String.length buf then t.repair <- true));
  t

(* --- writing ----------------------------------------------------------- *)

let read_fd fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let b = Bytes.create size in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec go off =
    if off >= size then off
    else
      match Unix.read fd b off (size - off) with 0 -> off | r -> go (off + r)
  in
  Bytes.sub_string b 0 (go 0)

let write_all fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  if n <> String.length s then failwith "short write"

(* Open the log for appending and hold an exclusive lock on it for [f].
   A compaction renames a new file over the path; a writer that was
   waiting on the old file's lock then holds an orphan, so it reopens. *)
let with_locked path f =
  let rec attempt tries =
    let fd = Unix.openfile path Unix.[ O_RDWR; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
    match
      (try Unix.lockf fd Unix.F_LOCK 0
       with Unix.Unix_error ((Unix.ENOLCK | Unix.EINVAL | Unix.EOPNOTSUPP), _, _) -> ());
      let a = Unix.fstat fd and b = Unix.stat path in
      a.Unix.st_ino = b.Unix.st_ino && a.Unix.st_dev = b.Unix.st_dev
    with
    | current when current || tries = 0 ->
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)
    | _ ->
        Unix.close fd;
        attempt (tries - 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  attempt 8

let compact path t =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (save t));
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save_file path t =
  if t.pending <> [] || t.repair then begin
    (try
       with_locked path (fun fd ->
           let buf = read_fd fd in
           let disk =
             if buf = "" then Ok { entries = []; good = 0; batches = 0; live = 0 }
             else scan t buf
           in
           let healthy, live =
             match disk with
             | Ok s -> (s.good = String.length buf, s.live)
             | Error _ -> (false, 0)
           in
           (* Fold in what other writers appended since our load; on a
              shared key the file's copy wins over ours. *)
           let pending = Hashtbl.create 16 in
           List.iter (fun k -> Hashtbl.replace pending k ()) t.pending;
           (match disk with
           | Error _ -> ()
           | Ok s ->
               List.iter
                 (fun (k, packed) ->
                   if Hashtbl.mem pending k then begin
                     Hashtbl.remove pending k;
                     Hashtbl.replace t.tbl k { packed; plain = None }
                   end
                   else if not (Hashtbl.mem t.tbl k) then
                     Hashtbl.add t.tbl k { packed; plain = None })
                 s.entries);
           let fresh =
             List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) pending [])
           in
           if healthy && fresh = [] then ()
           else begin
             let appended = batch t fresh in
             let size = String.length buf and grow = String.length appended in
             if buf = "" then write_all fd (header t ^ appended)
             else if healthy && size + grow <= 2 * (live + grow - commit_len) then
               write_all fd appended
             else compact path t
           end)
     with Unix.Unix_error (e, _, _) ->
       raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e))));
    t.pending <- [];
    t.repair <- false
  end
