module Emit = Sv_corpus.Emit
module Prng = Sv_util.Prng
module Parser = Sv_lang_c.Parser
module Preproc = Sv_lang_c.Preproc
module Interp_c = Sv_interp.Interp_c
module Interp_f = Sv_interp.Interp_f

type mode = Grow | Mutate | Mixed

type spec = { seed : int; count : int; mode : mode; base : string }

let mode_name = function Grow -> "grow" | Mutate -> "mutate" | Mixed -> "mixed"

let mode_of_name = function
  | "grow" -> Some Grow
  | "mutate" -> Some Mutate
  | "mixed" -> Some Mixed
  | _ -> None

let spec_string s =
  Printf.sprintf "gen:%s:%s:%d:%d" (mode_name s.mode) s.base s.seed s.count

let parse_spec str =
  match String.split_on_char ':' str with
  | [ "gen"; m; base; seed; count ] -> (
      match (mode_of_name m, int_of_string_opt seed, int_of_string_opt count) with
      | Some mode, Some seed, Some count when count > 0 && base <> "" ->
          Some { seed; count; mode; base }
      | _ -> None)
  | _ -> None

type variant = {
  v_id : string;
  v_cb : Emit.codebase;
  v_kind : [ `Grown | `Mutated ];
  v_seed_model : string option;
  v_ops : (string * string) list;  (** (operator, detail) chain, in order *)
  v_tries : int;  (** attempts before the accepted variant (1 = first try) *)
}

(* ------------------------------------------------------------------ *)
(* Base corpora for mutation mode                                      *)

let base_corpus = function
  | "all" ->
      Option.get (Sv_corpus.Registry.corpus "babelstream")
      @ Option.get (Sv_corpus.Registry.corpus "babelstream-f")
  | name -> (
      match Sv_corpus.Registry.corpus name with
      | Some cbs -> cbs
      | None -> invalid_arg (Printf.sprintf "Gen: unknown base corpus %S" name))

(* ------------------------------------------------------------------ *)
(* Semantic check: observable behaviour (result + printed output)      *)

let run_c (cb : Emit.codebase) =
  let resolve name = List.assoc_opt name cb.files in
  let units =
    List.map
      (fun f ->
        let src = List.assoc f cb.files in
        let pp = Preproc.run ~resolve ~defines:cb.defines ~file:f src in
        Parser.parse_tokens ~file:f pp.Preproc.tokens)
      (cb.main_file :: cb.extra_units)
  in
  Interp_c.run units

let obs_c = Interp_c.observation

let run_f (cb : Emit.codebase) =
  let src = List.assoc cb.main_file cb.files in
  Interp_f.run (Sv_lang_f.Parser.parse ~file:cb.main_file src)

let obs_f = Interp_f.observation

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* C mutation pipeline                                                 *)

(* Parse the main unit standalone (no include splicing), so every top
   belongs to the main file and the whole unit can be printed back.
   Object-like macros from the model shims (e.g. [KOKKOS_LAMBDA]) are
   prepended textually — the preprocessor treats them exactly as it
   would when splicing, and function-like defines are ignored on both
   paths. *)
let parse_main (cb : Emit.codebase) =
  let src = List.assoc cb.main_file cb.files in
  let shim_defines =
    List.concat_map
      (fun (f, content) ->
        if f = cb.Emit.main_file then []
        else
          String.split_on_char '\n' content
          |> List.filter (fun l ->
                 Sv_util.Xstring.starts_with ~prefix:"#define" (String.trim l)))
      cb.Emit.files
  in
  let src = String.concat "\n" (shim_defines @ [ src ]) in
  let pp =
    Preproc.run ~resolve:(fun _ -> None) ~defines:cb.defines ~file:cb.main_file src
  in
  Parser.parse_tokens ~file:cb.main_file pp.Preproc.tokens

let preprocessor_lines (cb : Emit.codebase) =
  let src = List.assoc cb.main_file cb.files in
  String.split_on_char '\n' src
  |> List.filter (fun l ->
         let t = String.trim l in
         String.length t > 0 && t.[0] = '#')

let rebuild_main (cb : Emit.codebase) ~id source =
  {
    cb with
    Emit.model = id;
    model_name = id;
    files =
      List.map
        (fun (f, c) -> if f = cb.Emit.main_file then (f, source) else (f, c))
        cb.Emit.files;
  }

let render_variant_source includes (u : Sv_lang_c.Ast.tunit) =
  String.concat "\n" includes ^ "\n\n" ^ Printer.tops u.Sv_lang_c.Ast.t_tops

(* One mutation attempt: 1–3 operator applications, each recorded with
   the intermediate AST it produced (the trace [diagnose] shrinks on). *)
let c_attempt sub (seed_ast : Sv_lang_c.Ast.tunit) =
  let rounds = 1 + Prng.int sub 3 in
  let ops = Array.of_list Mutate.all_ops in
  let rec go u trace r =
    if r = 0 then (u, List.rev trace)
    else
      let rec try_ops tries =
        if tries = 0 then None
        else
          let op = Prng.pick sub ops in
          match Mutate.apply sub op u with
          | Some r -> Some r
          | None -> try_ops (tries - 1)
      in
      match try_ops 8 with
      | None -> (u, List.rev trace)
      | Some (u', ap) -> go u' ((ap, u') :: trace) (r - 1)
  in
  go seed_ast [] rounds

let max_tries = 20

let c_variant ~cb ~seed_ast ~includes ~seed_obs ~id sub =
  let check u =
    let cb' = rebuild_main cb ~id (render_variant_source includes u) in
    match obs_c (run_c cb') with
    | obs -> if obs = seed_obs then Some cb' else None
    | exception _ -> None
  in
  let rec attempt t =
    if t > max_tries then
      (* reprint of the seed: identical AST, so identical behaviour —
         guarantees progress with an empty operator chain *)
      match check seed_ast with
      | Some cb' -> (cb', [], max_tries)
      | None ->
          failwith
            (Printf.sprintf "Gen: seed reprint of %s/%s fails its own check"
               cb.Emit.app cb.Emit.model)
    else
      let u, trace = c_attempt sub seed_ast in
      match check u with
      | Some cb' ->
          ( cb',
            List.map
              (fun (ap, _) -> (Mutate.op_name ap.Mutate.ap_op, ap.Mutate.ap_detail))
              trace,
            t )
      | None -> attempt (t + 1)
  in
  attempt 1

(* ------------------------------------------------------------------ *)
(* F mutation pipeline                                                 *)

let f_variant ~cb ~seed_obs ~id sub =
  let seed_src = List.assoc cb.Emit.main_file cb.Emit.files in
  let check src =
    let cb' = rebuild_main cb ~id src in
    match obs_f (run_f cb') with
    | obs -> if obs = seed_obs then Some cb' else None
    | exception _ -> None
  in
  let attempt_once () =
    let rounds = 1 + Prng.int sub 2 in
    let rec go src chain r =
      if r = 0 then (src, List.rev chain)
      else
        match Mutate_f.apply sub src with
        | Some (src', ap) ->
            go src' ((ap.Mutate_f.af_op, ap.Mutate_f.af_detail) :: chain) (r - 1)
        | None -> (src, List.rev chain)
    in
    go seed_src [] rounds
  in
  let rec attempt t =
    if t > max_tries then
      match check seed_src with
      | Some cb' -> (cb', [], max_tries)
      | None -> failwith (Printf.sprintf "Gen: F seed %s fails reprint" cb.Emit.model)
    else
      let src, chain = attempt_once () in
      match check src with
      | Some cb' -> (cb', chain, t)
      | None -> attempt (t + 1)
  in
  attempt 1

(* ------------------------------------------------------------------ *)
(* Grow pipeline                                                       *)

let grow_models base =
  match base with
  | "all" -> Emit.all_ids
  | models -> (
      let ids = String.split_on_char ',' models in
      match List.filter (fun id -> Emit.gen_for id = None) ids with
      | [] -> ids
      | bad ->
          invalid_arg
            (Printf.sprintf "Gen: unknown grow models %s" (String.concat "," bad)))

let grow_variant ~model ~id sub =
  let g =
    match Emit.gen_for model with
    | Some g -> g
    | None -> invalid_arg (Printf.sprintf "Gen: unknown model %s" model)
  in
  let rec attempt t =
    if t > max_tries then
      failwith (Printf.sprintf "Gen: grown variant %s never validated" id)
    else
      let p = Grow.rand_program sub in
      let cb = Grow.emit ~variant_id:id p g in
      match run_c cb with
      | o
        when o.Interp_c.result = Ok (Interp_c.VInt 0)
             && contains_substring ~sub:"Validation PASSED" o.Interp_c.output ->
          ({ cb with Emit.model = id; model_name = id }, t)
      | _ -> attempt (t + 1)
      | exception _ -> attempt (t + 1)
  in
  attempt 1

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* Every variant runs off its own sub-generator seeded from the master
   stream, so variant [k] is reproducible in isolation (the [diagnose]
   hook depends on this) and no variant's number of draws perturbs its
   neighbours. *)
let variant_seeds spec =
  let master = Prng.create spec.seed in
  Array.init spec.count (fun _ -> Int64.to_int (Prng.next_int64 master) land max_int)

type seed_entry = {
  se_cb : Emit.codebase;
  se_ast : Sv_lang_c.Ast.tunit Lazy.t option;
      (** None for MiniF seeds; a C seed is parsed when a variant draws it *)
  se_includes : string list;
  se_obs_c : ((Interp_c.value, string) result * string) option Lazy.t;
  se_obs_f : ((unit, string) result * string) option Lazy.t;
}

let seed_entries base =
  List.map
    (fun (cb : Emit.codebase) ->
      match cb.Emit.lang with
      | `C ->
          {
            se_cb = cb;
            se_ast = Some (lazy (parse_main cb));
            se_includes = preprocessor_lines cb;
            se_obs_c = lazy (try Some (obs_c (run_c cb)) with _ -> None);
            se_obs_f = lazy None;
          }
      | `F ->
          {
            se_cb = cb;
            se_ast = None;
            se_includes = [];
            se_obs_c = lazy None;
            se_obs_f = lazy (try Some (obs_f (run_f cb)) with _ -> None);
          })
    (base_corpus base)

let mutate_one entries sub k =
  let entry = List.nth entries (Prng.int sub (List.length entries)) in
  let cb = entry.se_cb in
  let id = Printf.sprintf "m%04d-%s" k cb.Emit.model in
  match entry.se_ast with
  | Some seed_ast ->
      let seed_obs =
        match Lazy.force entry.se_obs_c with
        | Some o -> o
        | None -> failwith (Printf.sprintf "Gen: seed %s does not run" cb.Emit.model)
      in
      let cb', ops, tries =
        c_variant ~cb ~seed_ast:(Lazy.force seed_ast) ~includes:entry.se_includes
          ~seed_obs ~id sub
      in
      {
        v_id = id;
        v_cb = cb';
        v_kind = `Mutated;
        v_seed_model = Some cb.Emit.model;
        v_ops = ops;
        v_tries = tries;
      }
  | None ->
      let seed_obs =
        match Lazy.force entry.se_obs_f with
        | Some o -> o
        | None -> failwith (Printf.sprintf "Gen: F seed %s does not run" cb.Emit.model)
      in
      let cb', ops, tries = f_variant ~cb ~seed_obs ~id sub in
      {
        v_id = id;
        v_cb = cb';
        v_kind = `Mutated;
        v_seed_model = Some cb.Emit.model;
        v_ops = ops;
        v_tries = tries;
      }

let grow_one models sub k =
  let model = List.nth models (k mod List.length models) in
  let id = Printf.sprintf "g%04d-%s" k model in
  let cb, tries = grow_variant ~model ~id sub in
  {
    v_id = id;
    v_cb = cb;
    v_kind = `Grown;
    v_seed_model = None;
    v_ops = [];
    v_tries = tries;
  }

let generate spec =
  let seeds = variant_seeds spec in
  match spec.mode with
  | Mutate ->
      let entries = seed_entries spec.base in
      List.init spec.count (fun k -> mutate_one entries (Prng.create seeds.(k)) k)
  | Grow ->
      let models = grow_models spec.base in
      List.init spec.count (fun k -> grow_one models (Prng.create seeds.(k)) k)
  | Mixed ->
      let entries = seed_entries spec.base in
      let models = Emit.all_ids in
      List.init spec.count (fun k ->
          let sub = Prng.create seeds.(k) in
          if k mod 2 = 0 then mutate_one entries sub k else grow_one models sub k)

let codebases spec = List.map (fun v -> v.v_cb) (generate spec)

(* Registry lookups ("gen:" app names) funnel through here, and a
   resident daemon resolves the app on every request — generation is
   deterministic, so memoising by spec string keeps a server from
   re-deriving (and re-verifying) the same corpus per request. The table
   is reset once it holds a handful of corpora to bound memory. *)
let memo : (string, Emit.codebase list) Hashtbl.t = Hashtbl.create 4

let corpus_of_spec str =
  match Hashtbl.find_opt memo str with
  | Some cbs -> Some cbs
  | None -> (
      match parse_spec str with
      | Some s -> (
          try
            let cbs = codebases s in
            if Hashtbl.length memo >= 8 then Hashtbl.reset memo;
            Hashtbl.add memo str cbs;
            Some cbs
          with Invalid_argument _ -> None)
      | None -> None)

let op_counts variants =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      List.iter
        (fun (op, _) ->
          Hashtbl.replace tbl op (1 + Option.value ~default:0 (Hashtbl.find_opt tbl op)))
        v.v_ops)
    variants;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Shrinking diagnosis                                                 *)

(* Replays variant [k] of a mutate-mode spec and, for every failing
   attempt, finds the shortest operator-chain prefix that already breaks
   the semantic check — the generator's equivalent of QuickCheck
   shrinking, printed with everything needed to reproduce: spec, variant
   seed, seed model, and the (operator, site, detail) chain. *)
let diagnose spec k =
  if k < 0 || k >= spec.count then invalid_arg "Gen.diagnose: variant out of range";
  let seeds = variant_seeds spec in
  let buf = Buffer.create 256 in
  let outf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  outf "spec %s variant %d (sub-seed %d)" (spec_string spec) k seeds.(k);
  let entries = seed_entries spec.base in
  let sub = Prng.create seeds.(k) in
  let entry = List.nth entries (Prng.int sub (List.length entries)) in
  let cb = entry.se_cb in
  outf "seed codebase %s/%s" cb.Emit.app cb.Emit.model;
  (match entry.se_ast with
  | None -> outf "MiniF seed: source-level ops, no prefix shrinking"
  | Some seed_ast -> (
      let seed_ast = Lazy.force seed_ast in
      match Lazy.force entry.se_obs_c with
      | None -> outf "seed itself fails to run"
      | Some seed_obs ->
          let id = Printf.sprintf "m%04d-%s" k cb.Emit.model in
          let check u =
            let cb' =
              rebuild_main cb ~id (render_variant_source entry.se_includes u)
            in
            match obs_c (run_c cb') with
            | obs -> obs = seed_obs
            | exception _ -> false
          in
          let rec attempts t =
            if t > max_tries then outf "all attempts exhausted"
            else
              let u, trace = c_attempt sub seed_ast in
              let chain =
                String.concat " ; "
                  (List.map
                     (fun (ap, _) ->
                       Printf.sprintf "%s[site %d/%d: %s]"
                         (Mutate.op_name ap.Mutate.ap_op) ap.Mutate.ap_site
                         ap.Mutate.ap_sites ap.Mutate.ap_detail)
                     trace)
              in
              if check u then
                outf "attempt %d PASSED: %s" t
                  (if chain = "" then "(empty chain)" else chain)
              else (
                outf "attempt %d FAILED: %s" t chain;
                (* shrink: first failing prefix *)
                let rec first_fail i = function
                  | [] -> ()
                  | (ap, u_i) :: rest ->
                      if not (check u_i) then
                        outf
                          "  minimal failing prefix: %d op(s), last = %s[site %d/%d: %s]"
                          i (Mutate.op_name ap.Mutate.ap_op) ap.Mutate.ap_site
                          ap.Mutate.ap_sites ap.Mutate.ap_detail
                      else first_fail (i + 1) rest
                in
                first_fail 1 trace;
                attempts (t + 1))
          in
          attempts 1));
  Buffer.contents buf
