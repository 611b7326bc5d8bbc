(** String helpers used throughout SilverVale-ML.

    These complement [Stdlib.String] with the handful of operations the
    lexers, normalisers and report renderers need. *)

val lines : string -> string list
(** [lines s] splits [s] on ['\n']. A trailing newline does not produce an
    extra empty line; an empty string yields [[]]. *)

val is_blank : string -> bool
(** [is_blank s] is true when [s] contains only spaces and tabs. *)

val strip : string -> string
(** [strip s] removes leading and trailing ASCII whitespace. *)

val starts_with : prefix:string -> string -> bool
(** [starts_with ~prefix s] tests for a literal prefix. *)

val collapse_spaces : string -> string
(** [collapse_spaces s] replaces every maximal run of spaces/tabs with a
    single space, implementing the whitespace-normalisation step of the
    Nguyen et al. SLOC standard used by the paper (§III-C). *)

val pad : int -> string -> string
(** [pad n s] right-pads [s] with spaces to display width [n] (no-op when
    [s] is already wider). Width is counted in Unicode scalar values so the
    box-drawing output in reports lines up. *)

val repeat : string -> int -> string
(** [repeat s n] is [s] concatenated [n] times. *)

val display_width : string -> int
(** [display_width s] is the number of Unicode scalar values in the UTF-8
    string [s]; used to align report columns that contain box-drawing
    characters. *)

val common_prefix_len : string -> string -> int
(** [common_prefix_len a b] is the length of the longest common prefix. *)
