exception Corrupt of string

let magic = "SVZ1"
let min_match = 4
let max_match = 0x7F + min_match
let max_dist = 0xFFFF

let add_varint b n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7F in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let read_varint s pos =
  let v = ref 0 and shift = ref 0 and pos = ref pos and fin = ref false in
  while not !fin do
    if !pos >= String.length s then raise (Corrupt "truncated varint");
    if !shift > 56 then raise (Corrupt "varint too long");
    let byte = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then fin := true
  done;
  (!v, !pos)

let hash4 s i =
  (Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF) * 2654435761
  land 0xFFFFF

(* The match table is allocated on first use and shared by every later
   call: filling a fresh 8 MiB table per call cost more than compressing
   a small input. Slots hold absolute positions [base + i], and each call
   starts at a [base] above every position stored before, so a slot below
   [base] is empty — exactly what a fresh table filled with -1 would say.
   Lazily, because most processes never compress. *)
let table = ref [||]
let next_base = ref 0

let compress s =
  let n = String.length s in
  let out = Buffer.create (n / 2 + 16) in
  Buffer.add_string out magic;
  add_varint out n;
  if Array.length !table = 0 then table := Array.make 0x100000 (-1);
  let table = !table in
  let base = !next_base in
  next_base := base + n;
  let lit_start = ref 0 in
  let flush_literals upto =
    (* Emit pending literals in runs of at most 128. *)
    let i = ref !lit_start in
    while !i < upto do
      let len = min 128 (upto - !i) in
      Buffer.add_char out (Char.chr (len - 1));
      Buffer.add_substring out s !i len;
      i := !i + len
    done;
    lit_start := upto
  in
  let i = ref 0 in
  while !i < n do
    if !i + min_match <= n then begin
      let h = hash4 s !i in
      let cand = table.(h) - base in
      table.(h) <- base + !i;
      let ok =
        cand >= 0
        && !i - cand <= max_dist
        && Int32.equal (String.get_int32_le s cand) (String.get_int32_le s !i)
      in
      if ok then begin
        (* Extend the match as far as allowed. *)
        let len = ref min_match in
        while
          !len < max_match && !i + !len < n && s.[cand + !len] = s.[!i + !len]
        do
          incr len
        done;
        flush_literals !i;
        let dist = !i - cand in
        Buffer.add_char out (Char.chr (0x80 lor (!len - min_match)));
        Buffer.add_char out (Char.chr (dist lsr 8));
        Buffer.add_char out (Char.chr (dist land 0xFF));
        (* Index the skipped positions sparsely (every other byte) to keep
           compression fast on long repeats. *)
        let stop = min (!i + !len) (n - min_match) in
        let j = ref (!i + 1) in
        while !j < stop do
          table.(hash4 s !j) <- base + !j;
          j := !j + 2
        done;
        i := !i + !len;
        lit_start := !i
      end
      else incr i
    end
    else incr i
  done;
  flush_literals n;
  Buffer.contents out

let decompress s =
  let len_magic = String.length magic in
  if String.length s < len_magic || String.sub s 0 len_magic <> magic then
    raise (Corrupt "bad magic");
  let orig_len, pos = read_varint s len_magic in
  let n = String.length s in
  (* A 3-byte match token yields at most [max_match] bytes and a literal
     run fewer bytes than it occupies, so a header claiming more than the
     token stream could produce is damage: reject it before allocating. *)
  let stream = n - pos in
  if orig_len < 0 || orig_len > (stream / 3 * max_match) + stream then
    raise (Corrupt "length exceeds token stream");
  let out = Bytes.create orig_len in
  let o = ref 0 in
  let pos = ref pos in
  while !pos < n do
    let tag = Char.code s.[!pos] in
    incr pos;
    if tag land 0x80 = 0 then begin
      let len = tag + 1 in
      if !pos + len > n then raise (Corrupt "truncated literal run");
      if !o + len > orig_len then raise (Corrupt "length mismatch");
      Bytes.blit_string s !pos out !o len;
      pos := !pos + len;
      o := !o + len
    end
    else begin
      if !pos + 2 > n then raise (Corrupt "truncated match");
      let len = (tag land 0x7F) + min_match in
      let dist = (Char.code s.[!pos] lsl 8) lor Char.code s.[!pos + 1] in
      pos := !pos + 2;
      if dist = 0 || dist > !o then raise (Corrupt "invalid distance");
      if !o + len > orig_len then raise (Corrupt "length mismatch");
      let from = !o - dist in
      if dist >= len then Bytes.blit out from out !o len
      else
        (* Overlapping copies are valid (RLE-style): byte by byte. *)
        for k = 0 to len - 1 do
          Bytes.unsafe_set out (!o + k) (Bytes.unsafe_get out (from + k))
        done;
      o := !o + len
    end
  done;
  if !o <> orig_len then raise (Corrupt "length mismatch");
  Bytes.unsafe_to_string out

let ratio s =
  if String.length s = 0 then 1.0
  else float_of_int (String.length (compress s)) /. float_of_int (String.length s)
