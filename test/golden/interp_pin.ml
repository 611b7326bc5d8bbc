(* interp_pin GROUP [ARG] — one line per interpreter run, for the
   interp.expected transcript.

   Each line is: program id, [steps], the result (value or error
   message), the MD5 of the printed output and the MD5 of the coverage
   dump. Groups:
   - [ports APP]: every bundled port of APP;
   - [gen SPEC]: every variant of a generator spec, id and [v_tries]
     included, so an admission decision that moves shows too;
   - [budget]: one C and one Fortran port at small step budgets, where
     the run ends in the budget error. *)

module Emit = Sv_corpus.Emit
module Interp_c = Sv_interp.Interp_c
module Interp_f = Sv_interp.Interp_f

let md5 s = Digest.to_hex (Digest.string s)

let cov_digest cov =
  let b = Buffer.create 4096 in
  List.iter
    (fun (file, lines) ->
      List.iter (fun (l, n) -> Printf.bprintf b "%s:%d:%d\n" file l n) lines)
    (Sv_util.Coverage.dump cov);
  md5 (Buffer.contents b)

let c_units (cb : Emit.codebase) =
  let resolve name = List.assoc_opt name cb.files in
  List.map
    (fun f ->
      let src = List.assoc f cb.files in
      let pp = Sv_lang_c.Preproc.run ~resolve ~defines:cb.defines ~file:f src in
      Sv_lang_c.Parser.parse_tokens ~file:f pp.Sv_lang_c.Preproc.tokens)
    (cb.main_file :: cb.extra_units)

let f_file (cb : Emit.codebase) =
  Sv_lang_f.Parser.parse ~file:cb.main_file (List.assoc cb.main_file cb.files)

let line id ~steps ~result ~output ~cov =
  Printf.printf "%s steps=%d %s out=%s cov=%s\n" id steps result (md5 output)
    (cov_digest cov)

let run ?max_steps id (cb : Emit.codebase) =
  match cb.lang with
  | `C ->
      let o = Interp_c.run ?max_steps (c_units cb) in
      let result =
        match o.result with
        | Ok v -> Format.asprintf "ok %a" Interp_c.pp_value v
        | Error m -> "error " ^ m
      in
      line id ~steps:o.steps ~result ~output:o.output ~cov:o.coverage
  | `F ->
      let o = Interp_f.run ?max_steps (f_file cb) in
      let result = match o.result with Ok () -> "ok" | Error m -> "error " ^ m in
      line id ~steps:o.steps ~result ~output:o.output ~cov:o.coverage

let corpus app =
  match Sv_corpus.Registry.corpus app with
  | Some cbs -> cbs
  | None -> failwith ("unknown app " ^ app)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "ports"; app ] ->
      List.iter (fun (cb : Emit.codebase) -> run (app ^ "/" ^ cb.model) cb) (corpus app)
  | [ "gen"; spec ] -> (
      match Sv_gen.Gen.parse_spec spec with
      | Some s ->
          List.iter
            (fun (v : Sv_gen.Gen.variant) ->
              run (Printf.sprintf "%s tries=%d" v.v_id v.v_tries) v.v_cb)
            (Sv_gen.Gen.generate s)
      | None -> failwith ("bad spec " ^ spec))
  | [ "budget" ] ->
      let c = List.hd (corpus "babelstream") and f = List.hd (corpus "babelstream-f") in
      List.iter
        (fun max_steps ->
          List.iter
            (fun (cb : Emit.codebase) ->
              run ~max_steps (Printf.sprintf "%s/%s max_steps=%d" cb.app cb.model max_steps) cb)
            [ c; f ])
        [ 100; 5000 ]
  | _ ->
      prerr_endline "usage: interp_pin ports APP | gen SPEC | budget";
      exit 2
