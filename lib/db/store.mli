(** Append-only, content-addressed persistent store — the one on-disk
    format behind {!Index_cache}, {!Codebase_db.Ted_cache} and
    {!Metric_cache}, which are typed views over it.

    A store file is a log:

    - a 10-byte header: magic ["SVST"], format version 1, a kind byte
      naming the view ['I'], ['T'] or ['M'], and the view's schema
      version as a big-endian u32;
    - then batches. A batch is one or more entry records followed by one
      commit record. An entry record is ['R'], the key length (one
      byte), the key, the payload length (big-endian u32), the
      svz-compressed payload, and a 4-byte checksum (MD5 prefix) of
      everything before it in the record. A commit record is ['C'], the
      batch's entry count (u32) and its own checksum.

    {b Load.} {!load_file} reads the file once and indexes every
    committed record; {!find} decompresses only the entry it returns,
    and only on its first lookup. Keys resolve first-wins: a later
    record for a key already seen is dead weight, never a new value.

    {b Save.} {!save_file} appends this run's additions as one batch.
    With no additions it writes nothing — the file is not even opened.
    Writers take an exclusive [lockf] on the log and open it
    [O_APPEND], so two processes sharing one file both land.

    {b Damage.} A 0-byte or missing file is an empty store. A record or
    commit that fails its checksum, or a batch with no commit, ends the
    scan; a foreign header (including the old whole-file [SVZ1] caches)
    is a cold start. Either marks the store for repair: the next
    {!save_file} rewrites the file instead of appending after garbage.

    {b Compaction.} When an append would take the file past twice its
    live bytes (header, live records, one commit), or the file needs
    repair, {!save_file} writes the canonical image ({!save}) of every
    live entry — the file's and this process's — to a per-process temp
    file and renames it over the log. The factor 2 is a constant: it
    bounds dead bytes to the live size, which is all a cache needs. *)

type t

val create : kind:char -> schema:int -> t
(** An empty store for records of [kind], stamped [schema]. Keys are
    opaque strings of at most 255 bytes; the views check their shape. *)

val find : t -> string -> string option
(** The payload stored under a key, decompressed on first access and
    kept decoded after. A payload that fails to decompress is dropped
    (and the store marked for repair), reading as absent. *)

val add : t -> string -> string -> bool
(** [add t k payload] records a new entry, to be appended by the next
    {!save_file}. First wins: [false], and no change, when [k] is
    already present or longer than 255 bytes. *)

val size : t -> int
(** Live entries. *)

val pending : t -> int
(** Entries added since the last {!save_file} — what it will append. *)

val save : t -> string
(** The canonical image: header, every entry sorted by key, one commit.
    A pure function of the contents; it is also what compaction writes
    and what a first save into an empty file appends. *)

val load : kind:char -> schema:int -> string -> (t, string) result
(** Strict decode of a whole image: the header must match, and the bytes
    must end exactly at a commit, with at least one batch. So every
    strict prefix of a {!save} image and every corrupted record is an
    [Error]. *)

val load_file : kind:char -> schema:int -> string -> t
(** Tolerant load of a log file, never an error: see {b Damage} above. *)

val save_file : string -> t -> unit
(** Persist pending entries (see {b Save} and {b Compaction}). Entries
    another process appended since this store was loaded are folded in
    first, the file's copy winning on a shared key. Raises [Sys_error]
    when the file cannot be written. *)
