(* Tests for Sv_svz: round-trips, compression effectiveness on repetitive
   input, and corruption detection. *)

module Svz = Sv_svz.Svz

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let test_empty () = checks "empty round-trip" "" (Svz.decompress (Svz.compress ""))

let test_simple_roundtrip () =
  let s = "the quick brown fox jumps over the lazy dog" in
  checks "round-trip" s (Svz.decompress (Svz.compress s))

let test_repetitive_compresses () =
  let s = String.concat "" (List.init 200 (fun _ -> "load.f64 store.f64 gep ")) in
  let c = Svz.compress s in
  checkb "smaller than input" true (String.length c < String.length s / 4);
  checks "still round-trips" s (Svz.decompress c)

let test_overlapping_match () =
  (* RLE-style overlapping back-reference: aaaa... *)
  let s = String.make 500 'a' in
  let c = Svz.compress s in
  checkb "rle compresses" true (String.length c < 30);
  checks "rle round-trips" s (Svz.decompress c)

let test_binary_roundtrip () =
  let s = String.init 256 Char.chr in
  checks "all bytes" s (Svz.decompress (Svz.compress s))

let test_corrupt_detection () =
  let fails s =
    match Svz.decompress s with exception Svz.Corrupt _ -> true | _ -> false
  in
  checkb "bad magic" true (fails "XXXX\x00");
  checkb "empty input" true (fails "");
  checkb "truncated" true
    (let c = Svz.compress (String.make 100 'x') in
     fails (String.sub c 0 (String.length c - 3)));
  (* flip a length byte so the declared original length mismatches *)
  let c = Bytes.of_string (Svz.compress "hello world hello world") in
  Bytes.set c 4 '\x7F';
  checkb "length mismatch" true (fails (Bytes.to_string c))

let test_ratio () =
  checkb "empty ratio is 1" true (Svz.ratio "" = 1.0);
  checkb "repetitive ratio < 1" true (Svz.ratio (String.make 1000 'z') < 0.1)

let arb_bytes = QCheck.string_of_size (QCheck.Gen.int_bound 2000)

let prop_roundtrip =
  QCheck.Test.make ~name:"compress/decompress identity" ~count:500 arb_bytes (fun s ->
      Svz.decompress (Svz.compress s) = s)

let prop_roundtrip_repetitive =
  QCheck.Test.make ~name:"identity on repetitive inputs" ~count:200
    QCheck.(pair (string_of_size (Gen.int_bound 30)) small_nat)
    (fun (chunk, reps) ->
      let s = String.concat "" (List.init (reps mod 50) (fun _ -> chunk)) in
      Svz.decompress (Svz.compress s) = s)

(* the format declares its payload length up front, so no strict prefix
   of an artifact can silently decompress — it must raise Corrupt *)
let prop_truncation_corrupt =
  QCheck.Test.make ~name:"every strict prefix raises Corrupt" ~count:300
    QCheck.(pair arb_bytes (int_bound 100_000))
    (fun (s, cut_seed) ->
      let c = Svz.compress s in
      let cut = cut_seed mod String.length c in
      match Svz.decompress (String.sub c 0 cut) with
      | exception Svz.Corrupt _ -> true
      | _ -> false)

let prop_bounded_expansion =
  QCheck.Test.make ~name:"worst-case expansion is bounded" ~count:300 arb_bytes (fun s ->
      String.length (Svz.compress s)
      <= String.length s + (String.length s / 64) + 32)


(* --- the shared match table --- *)

(* The compressor as it was before its match table became shared across
   calls: a fresh table per call, two substring allocations per probe.
   Kept as the reference the shared-table compressor must reproduce byte
   for byte. *)
module Reference = struct
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

  let hash4 s i =
    let b k = Char.code s.[i + k] in
    (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)) * 2654435761
    land 0xFFFFF

  let compress s =
    let n = String.length s in
    let out = Buffer.create (n / 2 + 16) in
    Buffer.add_string out "SVZ1";
    add_varint out n;
    let table = Array.make 0x100000 (-1) in
    let lit_start = ref 0 in
    let flush_literals upto =
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
        let cand = table.(h) in
        table.(h) <- !i;
        let ok =
          cand >= 0
          && !i - cand <= max_dist
          && String.sub s cand min_match = String.sub s !i min_match
        in
        if ok then begin
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
          let stop = min (!i + !len) (n - min_match) in
          let j = ref (!i + 1) in
          while !j < stop do
            table.(hash4 s !j) <- !j;
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
end

let example_inputs =
  [
    "";
    "the quick brown fox jumps over the lazy dog";
    String.concat "" (List.init 200 (fun _ -> "load.f64 store.f64 gep "));
    String.make 500 'a';
    String.init 256 Char.chr;
    String.make 100 'x';
    "hello world hello world";
    String.make 1000 'z';
  ]

(* A msgpack tree dump of a real port: the shape every cache payload has. *)
let msgpack_dump =
  lazy
    (let cb = List.hd (Sv_corpus.Babelstream.all ()) in
     Sv_msgpack.Msgpack.encode
       (Sv_core.Index_engine.indexed_to_msgpack (Sv_core.Pipeline.index ~run:false cb)))

let test_reference_examples () =
  List.iter
    (fun s -> checks "byte-identical to the reference" (Reference.compress s) (Svz.compress s))
    (Lazy.force msgpack_dump :: example_inputs)

let test_reference_many_calls () =
  (* stale slots from earlier inputs must never produce a match: run the
     same inputs in several orders, each call against the reference *)
  let inputs = Lazy.force msgpack_dump :: example_inputs in
  for round = 0 to 3 do
    let order = if round mod 2 = 0 then inputs else List.rev inputs in
    List.iter
      (fun s ->
        checks "identical after earlier calls" (Reference.compress s) (Svz.compress s))
      order
  done

let prop_reference_random =
  QCheck.Test.make ~name:"byte-identical to the reference compressor" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 4) arb_bytes)
    (fun ss -> List.for_all (fun s -> Svz.compress s = Reference.compress s) ss)

let prop_reference_repetitive =
  QCheck.Test.make ~name:"byte-identical on repetitive inputs" ~count:60
    QCheck.(pair (string_of_size (Gen.int_bound 30)) small_nat)
    (fun (chunk, reps) ->
      let s = String.concat "" (List.init (reps mod 50) (fun _ -> chunk)) in
      Svz.compress s = Reference.compress s)

(* --- damaged length headers --- *)

let corrupt s = match Svz.decompress s with exception Svz.Corrupt _ -> true | _ -> false

let test_huge_length_header () =
  (* magic, a varint claiming about 2^55 bytes, then a one-byte literal:
     must be rejected before anything of that size is allocated *)
  checkb "absurd length is Corrupt" true
    (corrupt "SVZ1\xff\xff\xff\xff\xff\xff\xff\x3f\x00\x78");
  checkb "over-long varint is Corrupt" true
    (corrupt ("SVZ1" ^ String.make 12 '\xff' ^ "\x01\x00\x78"));
  checkb "length one past the stream is Corrupt" true
    (corrupt "SVZ1\x02\x00\x78")

(* Replace the declared length with another varint: the result is either
   Corrupt or — when the new length happens to be the true one — the
   original string, never another exception. *)
let with_length c len =
  let _, pos =
    let rec skip i = if Char.code c.[i] land 0x80 = 0 then i + 1 else skip (i + 1) in
    (0, skip 4)
  in
  let b = Buffer.create (String.length c + 10) in
  Buffer.add_string b "SVZ1";
  Reference.add_varint b len;
  Buffer.add_string b (String.sub c pos (String.length c - pos));
  Buffer.contents b

let prop_length_header_mutation =
  QCheck.Test.make ~name:"mutated length header is Corrupt or exact" ~count:300
    QCheck.(pair arb_bytes (oneof [ small_nat; int_bound (1 lsl 40); int ]))
    (fun (s, len) ->
      let c = with_length (Svz.compress s) (abs len) in
      match Svz.decompress c with
      | exception Svz.Corrupt _ -> true
      | out -> out = s && abs len = String.length s)

let () =
  Alcotest.run "svz"
    [
      ( "examples",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "simple" `Quick test_simple_roundtrip;
          Alcotest.test_case "repetitive compresses" `Quick test_repetitive_compresses;
          Alcotest.test_case "overlapping match" `Quick test_overlapping_match;
          Alcotest.test_case "binary" `Quick test_binary_roundtrip;
          Alcotest.test_case "corruption" `Quick test_corrupt_detection;
          Alcotest.test_case "ratio" `Quick test_ratio;
          Alcotest.test_case "huge length header" `Quick test_huge_length_header;
        ] );
      ( "shared table",
        [
          Alcotest.test_case "reference examples" `Quick test_reference_examples;
          Alcotest.test_case "many calls in a row" `Quick test_reference_many_calls;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_roundtrip_repetitive; prop_truncation_corrupt;
            prop_bounded_expansion ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~speed_level:`Quick)
            [ prop_reference_random; prop_reference_repetitive;
              prop_length_header_mutation ] );
    ]
