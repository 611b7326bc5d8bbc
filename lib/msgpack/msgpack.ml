type t =
  | Nil
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Bin of string
  | Arr of t list
  | Map of (t * t) list

exception Decode_error of string

(* --- encoding ------------------------------------------------------ *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u16 b v =
  add_u8 b (v lsr 8);
  add_u8 b v

let add_u32 b v =
  add_u16 b (v lsr 16);
  add_u16 b v

let add_u64 b (v : int64) =
  for i = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v ((7 - i) * 8)) land 0xFF)
  done

let encode_int b i =
  if i >= 0 then begin
    if i < 0x80 then add_u8 b i
    else if i < 0x100 then begin add_u8 b 0xCC; add_u8 b i end
    else if i < 0x10000 then begin add_u8 b 0xCD; add_u16 b i end
    else if i < 0x100000000 then begin add_u8 b 0xCE; add_u32 b i end
    else begin add_u8 b 0xCF; add_u64 b (Int64.of_int i) end
  end
  else if i >= -32 then add_u8 b (i land 0xFF)
  else if i >= -0x80 then begin add_u8 b 0xD0; add_u8 b i end
  else if i >= -0x8000 then begin add_u8 b 0xD1; add_u16 b i end
  else if i >= -0x80000000 then begin add_u8 b 0xD2; add_u32 b i end
  else begin add_u8 b 0xD3; add_u64 b (Int64.of_int i) end

let encode_len b ~fix_tag ~fix_max ~tag8 ~tag16 ~tag32 n =
  if fix_max >= 0 && n <= fix_max then add_u8 b (fix_tag lor n)
  else if tag8 >= 0 && n < 0x100 then begin add_u8 b tag8; add_u8 b n end
  else if n < 0x10000 then begin add_u8 b tag16; add_u16 b n end
  else begin add_u8 b tag32; add_u32 b n end

let rec encode_value b v =
  match v with
  | Nil -> add_u8 b 0xC0
  | Bool false -> add_u8 b 0xC2
  | Bool true -> add_u8 b 0xC3
  | Int i -> encode_int b i
  | Float f ->
      add_u8 b 0xCB;
      add_u64 b (Int64.bits_of_float f)
  | Str s ->
      encode_len b ~fix_tag:0xA0 ~fix_max:31 ~tag8:0xD9 ~tag16:0xDA ~tag32:0xDB
        (String.length s);
      Buffer.add_string b s
  | Bin s ->
      encode_len b ~fix_tag:0 ~fix_max:(-1) ~tag8:0xC4 ~tag16:0xC5 ~tag32:0xC6
        (String.length s);
      Buffer.add_string b s
  | Arr xs ->
      encode_len b ~fix_tag:0x90 ~fix_max:15 ~tag8:(-1) ~tag16:0xDC ~tag32:0xDD
        (List.length xs);
      List.iter (encode_value b) xs
  | Map kvs ->
      encode_len b ~fix_tag:0x80 ~fix_max:15 ~tag8:(-1) ~tag16:0xDE ~tag32:0xDF
        (List.length kvs);
      List.iter
        (fun (k, v) ->
          encode_value b k;
          encode_value b v)
        kvs

let encode_to b v = encode_value b v

let encode v =
  let b = Buffer.create 256 in
  encode_value b v;
  Buffer.contents b

(* --- decoding ------------------------------------------------------ *)

type reader = { src : string; mutable pos : int }

let rfail r msg = raise (Decode_error (Printf.sprintf "%s at offset %d" msg r.pos))

let ru8 r =
  if r.pos >= String.length r.src then rfail r "truncated input";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ru16 r =
  let hi = ru8 r in
  (hi lsl 8) lor ru8 r

let ru32 r =
  let hi = ru16 r in
  (hi lsl 16) lor ru16 r

let ru64 r =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (ru8 r))
  done;
  !v

let rbytes r n =
  if r.pos + n > String.length r.src then rfail r "truncated payload";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let int64_to_int r v =
  let i = Int64.to_int v in
  if Int64.of_int i <> v then rfail r "64-bit value out of OCaml int range";
  i

(* Each [*_of_tag] reads what follows a tag just read: the integer, or
   the length of a string, blob or array, failing on any other tag. *)

let expected r what tag =
  rfail r (Printf.sprintf "expected %s, got tag 0x%02X" what tag)

let int_of_tag r tag =
  if tag < 0x80 then tag
  else if tag >= 0xE0 then tag - 0x100
  else
    match tag with
    | 0xCC -> ru8 r
    | 0xCD -> ru16 r
    | 0xCE -> ru32 r
    | 0xCF ->
        let v = ru64 r in
        if Int64.compare v 0L < 0 then rfail r "uint64 out of OCaml int range";
        int64_to_int r v
    | 0xD0 ->
        let v = ru8 r in
        if v >= 0x80 then v - 0x100 else v
    | 0xD1 ->
        let v = ru16 r in
        if v >= 0x8000 then v - 0x10000 else v
    | 0xD2 ->
        let v = ru32 r in
        if v >= 0x80000000 then v - 0x100000000 else v
    | 0xD3 -> int64_to_int r (ru64 r)
    | _ -> expected r "an integer" tag

let str_len_of_tag r tag =
  if tag land 0xE0 = 0xA0 then tag land 0x1F
  else
    match tag with
    | 0xD9 -> ru8 r
    | 0xDA -> ru16 r
    | 0xDB -> ru32 r
    | _ -> expected r "a string" tag

let bin_len_of_tag r tag =
  match tag with
  | 0xC4 -> ru8 r
  | 0xC5 -> ru16 r
  | 0xC6 -> ru32 r
  | _ -> expected r "a blob" tag

let arr_len_of_tag r tag =
  if tag land 0xF0 = 0x90 then tag land 0x0F
  else
    match tag with
    | 0xDC -> ru16 r
    | 0xDD -> ru32 r
    | _ -> expected r "an array" tag

let rec decode_value r =
  let tag = ru8 r in
  if tag < 0x80 || tag >= 0xE0 then Int (int_of_tag r tag)
  else if tag land 0xF0 = 0x80 then decode_map r (tag land 0x0F)
  else if tag land 0xF0 = 0x90 then decode_arr r (tag land 0x0F)
  else if tag land 0xE0 = 0xA0 then Str (rbytes r (tag land 0x1F))
  else
    match tag with
    | 0xC0 -> Nil
    | 0xC2 -> Bool false
    | 0xC3 -> Bool true
    | 0xC4 | 0xC5 | 0xC6 -> Bin (rbytes r (bin_len_of_tag r tag))
    | 0xCA ->
        (* float32: widen to float64 *)
        let bits = ru32 r in
        Float (Int32.float_of_bits (Int32.of_int bits))
    | 0xCB -> Float (Int64.float_of_bits (ru64 r))
    | 0xCC | 0xCD | 0xCE | 0xCF | 0xD0 | 0xD1 | 0xD2 | 0xD3 -> Int (int_of_tag r tag)
    | 0xD9 | 0xDA | 0xDB -> Str (rbytes r (str_len_of_tag r tag))
    | 0xDC | 0xDD -> decode_arr r (arr_len_of_tag r tag)
    | 0xDE -> decode_map r (ru16 r)
    | 0xDF -> decode_map r (ru32 r)
    | _ -> rfail r (Printf.sprintf "unsupported tag 0x%02X" tag)

and decode_arr r n = Arr (List.init n (fun _ -> decode_value r))

and decode_map r n =
  Map
    (List.init n (fun _ ->
         let k = decode_value r in
         let v = decode_value r in
         (k, v)))

let decode_prefix s pos =
  let r = { src = s; pos } in
  let v = decode_value r in
  (v, r.pos)

let decode s =
  let v, stop = decode_prefix s 0 in
  if stop <> String.length s then
    raise (Decode_error (Printf.sprintf "trailing bytes at offset %d" stop));
  v

(* --- cursor ------------------------------------------------------- *)

(* A typed walk over the same reader, for callers that know the schema:
   each read checks the tag it expects and decodes straight into the
   caller's values, with no intermediate [t]. *)

type cursor = reader

let cursor s = { src = s; pos = 0 }
let pos c = c.pos
let at_end c = c.pos = String.length c.src
let read_array c = arr_len_of_tag c (ru8 c)

let read_list c f =
  let rec go n = if n = 0 then [] else let x = f c in x :: go (n - 1) in
  go (read_array c)

let str_len c = str_len_of_tag c (ru8 c)
let read_str c = rbytes c (str_len c)
let read_bin c = rbytes c (bin_len_of_tag c (ru8 c))
let read_int c = int_of_tag c (ru8 c)

let read_nil c =
  if c.pos < String.length c.src && Char.code c.src.[c.pos] = 0xC0 then begin
    c.pos <- c.pos + 1;
    true
  end
  else false

(* The [n] bytes of [src] at [pos] equal those of [s] at [off]; both
   ranges are in bounds. *)
let same_bytes src pos s off n =
  let rec go i =
    i = n || (String.unsafe_get src (pos + i) = String.unsafe_get s (off + i) && go (i + 1))
  in
  go 0

(* Open hashing over byte slices, so a string already in the table is
   found without first copying it out of the source. *)
type strtab = { mutable slots : string list array; mutable count : int }

let strtab () = { slots = Array.make 256 []; count = 0 }

let hash_slice s pos n =
  let h = ref n in
  for i = pos to pos + n - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

let grow tab =
  let slots = Array.make (2 * Array.length tab.slots) [] in
  Array.iter
    (List.iter (fun s ->
         let i = hash_slice s 0 (String.length s) land (Array.length slots - 1) in
         slots.(i) <- s :: slots.(i)))
    tab.slots;
  tab.slots <- slots

let read_str_shared tab c =
  let n = str_len c in
  if n = 0 then ""
  else begin
    if c.pos + n > String.length c.src then rfail c "truncated payload";
    let i = hash_slice c.src c.pos n land (Array.length tab.slots - 1) in
    match
      List.find_opt
        (fun s -> String.length s = n && same_bytes c.src c.pos s 0 n)
        tab.slots.(i)
    with
    | Some s ->
        c.pos <- c.pos + n;
        s
    | None ->
        let s = rbytes c n in
        tab.slots.(i) <- s :: tab.slots.(i);
        tab.count <- tab.count + 1;
        if tab.count > 2 * Array.length tab.slots then grow tab;
        s
  end

let skip_repeat c ~start ~stop =
  let n = stop - start in
  if n > 0 && c.pos + n <= String.length c.src && same_bytes c.src c.pos c.src start n
  then begin
    c.pos <- c.pos + n;
    true
  end
  else false

let equal (a : t) (b : t) = a = b

let rec pp fmt v =
  match v with
  | Nil -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Bin s -> Format.fprintf fmt "<bin:%d>" (String.length s)
  | Arr xs ->
      Format.fprintf fmt "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp)
        xs
  | Map kvs ->
      let pp_kv fmt (k, v) = Format.fprintf fmt "%a: %a" pp k pp v in
      Format.fprintf fmt "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp_kv)
        kvs
