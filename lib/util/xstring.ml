let lines s =
  if s = "" then []
  else
    let s = if String.length s > 0 && s.[String.length s - 1] = '\n'
            then String.sub s 0 (String.length s - 1) else s in
    String.split_on_char '\n' s

let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t') s

let strip = String.trim

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let collapse_spaces s =
  let b = Buffer.create (String.length s) in
  let in_run = ref false in
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' then begin
        if not !in_run then Buffer.add_char b ' ';
        in_run := true
      end else begin
        in_run := false;
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

let display_width s =
  (* Count UTF-8 code points: bytes that are not continuation bytes. *)
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let repeat s n =
  let b = Buffer.create (String.length s * max n 0) in
  for _ = 1 to n do Buffer.add_string b s done;
  Buffer.contents b

let pad n s =
  let w = display_width s in
  if w >= n then s else s ^ String.make (n - w) ' '

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0
