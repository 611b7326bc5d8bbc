(** The Codebase DB — SilverVale's portable analysis artifact (§IV).

    The index step turns a compiled codebase into "a portable set of
    semantic-bearing trees and metadata files all stored in a Zstd
    compressed MessagePack format". This module is that store: trees plus
    per-unit metadata, serialised to MessagePack ({!Sv_msgpack}) and
    compressed with the LZ77 codec ({!Sv_svz}, the Zstd stand-in). *)

type unit_record = {
  ur_file : string;                     (** unit main file *)
  ur_deps : string list;                (** headers spliced into the unit *)
  ur_sloc : int;
  ur_lloc : int;
  ur_lines : string list;               (** normalised source lines *)
  ur_trees : (string * Sv_tree.Label.tree) list;
      (** named trees: ["t_src"], ["t_src_pp"], ["t_sem"], ["t_sem_i"],
          ["t_ir"], and their ["+cov"] variants when coverage ran *)
}

type t = {
  db_app : string;    (** application name, e.g. ["tealeaf"] *)
  db_model : string;  (** programming model id *)
  db_units : unit_record list;
}

val save : t -> string
(** [save db] is the compressed binary artifact. *)

val load : string -> (t, string) Result.t
(** [load bytes] decodes an artifact produced by {!save}; reports
    corruption and schema mismatches as [Error]. *)

val tree_to_msgpack : Sv_tree.Label.tree -> Sv_msgpack.Msgpack.t
(** Tree codec, exposed for tests: node → [\[kind; text; loc; children\]]. *)

val tree_of_msgpack : Sv_msgpack.Msgpack.t -> (Sv_tree.Label.tree, string) Result.t
(** Inverse of {!tree_to_msgpack}. *)

val stats : t -> string
(** One-line summary: unit count, total tree nodes, compressed and
    uncompressed artifact sizes and ratio. *)

(** Persistent memo table for pairwise TED results.

    Keys are the two trees' structural digests (MD5 of the msgpack tree
    encoding with locations stripped, matching {!Sv_tree.Label.equal}'s
    blindness to locations), ordered so the symmetric distance is stored
    once. On disk it is a {!Store} log: one record per pair, keyed by the
    ordered digest pair, so a run appends only the pairs it computed. *)
module Ted_cache : sig
  type cache

  val create : unit -> cache
  (** Empty cache with zeroed hit/miss counters. *)

  val digest : Sv_tree.Label.tree -> string
  (** Structural digest of a tree (16 raw MD5 bytes). Location-blind:
      trees equal under {!Sv_tree.Label.equal} share a digest. *)

  val find : cache -> string -> string -> int option
  (** [find c da db] looks up the distance for a digest pair, in either
      order, bumping the hit/miss counters. *)

  val mem : cache -> string -> string -> bool
  (** [mem c da db] is whether {!find} would hit, without bumping the
      counters. *)

  val add : cache -> string -> string -> int -> unit
  (** Record a computed distance; an existing entry is kept. *)

  val size : cache -> int
  val hits : cache -> int
  val misses : cache -> int

  val pending : cache -> int
  (** Entries the next {!save_file} will append. *)

  val save : cache -> string
  (** The canonical store image (deterministic for given contents). *)

  val load : string -> (cache, string) Result.t
  (** Decode an image produced by {!save}. *)

  val save_file : string -> cache -> unit
  (** Append the pairs added since the load; writes nothing when there
      are none. Raises [Sys_error]. *)

  val load_file : string -> cache
  (** [load_file path] indexes a cache file; a missing or corrupt file
      yields what it holds intact, down to an empty cache (a cold start,
      never an error). *)

  val stats : cache -> string
  (** One-line entry/hit/miss summary. *)
end
