open Sv_lang_c.Ast
module Loc = Sv_util.Loc
module Prng = Sv_util.Prng
module SS = Set.Make (String)

(* Every operator below is {e conservative}: it only fires on sites whose
   rewrite it can argue is observation-preserving, and the generator
   still re-runs the interpreter on every emitted variant (the semantic
   backstop), so a wrong argument costs a discarded variant, never a
   corrupted corpus. *)

type op =
  | Rename
  | Commute
  | Reassoc
  | SwapStmts
  | Fission
  | Tile
  | Interchange
  | DirectivePermute
  | DirectiveHoist
  | Extract
  | Inline

let all_ops =
  [
    Rename; Commute; Reassoc; SwapStmts; Fission; Tile; Interchange;
    DirectivePermute; DirectiveHoist; Extract; Inline;
  ]

let op_name = function
  | Rename -> "rename"
  | Commute -> "commute"
  | Reassoc -> "reassoc"
  | SwapStmts -> "swap-stmts"
  | Fission -> "fission"
  | Tile -> "tile"
  | Interchange -> "interchange"
  | DirectivePermute -> "directive-permute"
  | DirectiveHoist -> "directive-hoist"
  | Extract -> "extract"
  | Inline -> "inline"

type applied = { ap_op : op; ap_site : int; ap_sites : int; ap_detail : string }

let mk_e node = { e = node; eloc = Loc.none }
let mk_s node = { s = node; sloc = Loc.none }

(* ------------------------------------------------------------------ *)
(* Purity and read/write analysis                                      *)

exception Opaque

let pure_builtins =
  SS.of_list
    [
      "sqrt"; "fabs"; "pow"; "exp"; "log"; "cos"; "sin"; "floor"; "ceil";
      "fmin"; "fmax"; "fmod"; "min"; "max"; "abs";
    ]

(* Variables a side-effect-free expression reads; raises [Opaque] on any
   construct that could write or that we cannot see through. *)
let rec expr_reads acc (e : expr) =
  match e.e with
  | IntE _ | FloatE _ | BoolE _ | StrE _ | CharE _ | NullE | SizeofT _ -> acc
  | Var n -> SS.add n acc
  | Unary ((PreInc | PreDec | PostInc | PostDec), _) -> raise Opaque
  | Unary (_, a) -> expr_reads acc a
  | Binary (_, a, b) -> expr_reads (expr_reads acc a) b
  | Ternary (c, a, b) -> expr_reads (expr_reads (expr_reads acc c) a) b
  | Index (a, i) -> expr_reads (expr_reads acc a) i
  | Member (a, _, `Dot) -> expr_reads acc a
  | Member (_, _, `Arrow) -> raise Opaque
  | Cast (_, a) -> expr_reads acc a
  | Call ({ e = Var f; _ }, [], args) when SS.mem f pure_builtins ->
      List.fold_left expr_reads acc args
  | Assign _ | Call _ | KernelLaunch _ | Lambda _ | New _ | InitList _ ->
      raise Opaque

let is_pure e = match expr_reads SS.empty e with _ -> true | exception Opaque -> false
let reads_of e = expr_reads SS.empty e

(* Reads/writes of a "simple" statement (plain assignment or
   declaration); [None] when the statement is not analyzable. *)
let simple_stmt_rw (st : stmt) : (SS.t * SS.t) option =
  try
    match st.s with
    | ExprS { e = Assign (op, lhs, rhs); _ } ->
        let reads = expr_reads SS.empty rhs in
        let reads, writes =
          match lhs.e with
          | Var n ->
              ((if op = None then reads else SS.add n reads), SS.singleton n)
          | Index ({ e = Var a; _ }, idx) ->
              let reads = expr_reads reads idx in
              ((if op = None then reads else SS.add a reads), SS.singleton a)
          | _ -> raise Opaque
        in
        Some (reads, writes)
    | Decl (_, names) ->
        let writes = SS.of_list (List.map fst names) in
        let reads =
          List.fold_left
            (fun acc (_, init) ->
              match init with None -> acc | Some e -> expr_reads acc e)
            SS.empty names
        in
        Some (reads, writes)
    | _ -> None
  with Opaque -> None

(* Scalar names written directly ([x = ..], [x++]) vs. array bases
   written through an index ([a\[i\] = ..]) anywhere under a statement
   list. Raises [Opaque] on address-taking (aliases defeat the split). *)
let deep_writes (body : stmt list) : SS.t * SS.t =
  let direct = ref SS.empty and element = ref SS.empty in
  let note_lhs (lhs : expr) =
    match lhs.e with
    | Var n -> direct := SS.add n !direct
    | Index ({ e = Var a; _ }, _) -> element := SS.add a !element
    | Member ({ e = Var o; _ }, _, _) -> direct := SS.add o !direct
    | _ -> raise Opaque
  in
  let expr m (e : expr) =
    (match e.e with
    | Assign (_, lhs, _) -> note_lhs lhs
    | Unary ((PreInc | PreDec | PostInc | PostDec), t) -> note_lhs t
    | Unary (AddrOf, _) -> raise Opaque
    | _ -> ());
    Ast_map.default_expr m e
  in
  ignore (Ast_map.map_stmts { Ast_map.default with expr } body);
  (!direct, !element)

let contains_return (body : stmt list) =
  let found = ref false in
  let stmt m (st : stmt) =
    (match st.s with Return _ -> found := true | _ -> ());
    Ast_map.default_stmt m st
  in
  ignore (Ast_map.map_stmts { Ast_map.default with stmt } body);
  !found

(* All identifiers occurring anywhere under a function — the freshness
   universe for renames. *)
let idents_of_func (f : func) : SS.t =
  let acc = ref SS.empty in
  let add n = acc := SS.add n !acc in
  List.iter (fun p -> add p.p_name) f.f_params;
  let expr m (e : expr) =
    (match e.e with Var n -> add n | Member (_, n, _) -> add n | _ -> ());
    Ast_map.default_expr m e
  in
  let stmt m (st : stmt) =
    (match st.s with
    | Decl (_, names) -> List.iter (fun (n, _) -> add n) names
    | _ -> ());
    Ast_map.default_stmt m st
  in
  (match f.f_body with
  | Some body -> ignore (Ast_map.map_stmts { Ast_map.default with expr; stmt } body)
  | None -> ());
  !acc

(* Flat name -> type environment of a function (params + every local
   declaration); a name declared at two different types poisons to
   [None]. *)
let func_env (f : func) : (string, ty option) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let add n t =
    match Hashtbl.find_opt tbl n with
    | None -> Hashtbl.replace tbl n (Some t)
    | Some (Some t') when t' = t -> ()
    | Some _ -> Hashtbl.replace tbl n None
  in
  List.iter (fun p -> add p.p_name p.p_ty) f.f_params;
  let stmt m (st : stmt) =
    (match st.s with
    | Decl (t, names) -> List.iter (fun (n, _) -> add n t) names
    | _ -> ());
    Ast_map.default_stmt m st
  in
  (match f.f_body with
  | Some body -> ignore (Ast_map.map_stmts { Ast_map.default with stmt } body)
  | None -> ());
  tbl

let rec int_typed env (e : expr) =
  match e.e with
  | IntE _ -> true
  | Var n -> (
      match Hashtbl.find_opt env n with
      | Some (Some (TInt | TLong | TSizeT)) -> true
      | _ -> false)
  | Binary ((Add | Sub | Mul | Div | Mod), a, b) ->
      int_typed env a && int_typed env b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Canonical counted loops                                             *)

type canon = {
  c_ity : ty;
  c_iv : string;
  c_lo : int;
  c_bound : expr;
  c_body : stmt list;
}

let step_incr iv (step : expr) =
  match step.e with
  | Unary ((PreInc | PostInc), { e = Var v; _ }) -> v = iv
  | Assign (Some Add, { e = Var v; _ }, { e = IntE 1; _ }) -> v = iv
  | _ -> false

let canon_loop (st : stmt) : canon option =
  match st.s with
  | For
      ( Some { s = Decl (((TInt | TLong | TSizeT) as ity), [ (iv, Some { e = IntE lo; _ }) ]); _ },
        Some { e = Binary (Lt, { e = Var iv2; _ }, bound); _ },
        Some step,
        body )
    when iv = iv2 && step_incr iv step && is_pure bound ->
      Some { c_ity = ity; c_iv = iv; c_lo = lo; c_bound = bound; c_body = body }
  | _ -> None

let rebuild_canon c =
  mk_s
    (For
       ( Some (mk_s (Decl (c.c_ity, [ (c.c_iv, Some (mk_e (IntE c.c_lo))) ]))),
         Some (mk_e (Binary (Lt, mk_e (Var c.c_iv), c.c_bound))),
         Some (mk_e (Unary (PostInc, mk_e (Var c.c_iv)))),
         c.c_body ))

(* The loop's data accesses touch only [a\[iv\]] cells (exact index
   variable) and read-only scalars: every split of the body is then
   observation-equivalent (all dependences are same-iteration). *)
let same_index_only c =
  let ok = ref true in
  let expr m (e : expr) =
    (match e.e with
    | Index ({ e = Var _; _ }, { e = Var v; _ }) when v = c.c_iv -> ()
    | Index _ -> ok := false
    | _ -> ());
    Ast_map.default_expr m e
  in
  let all_assign_to_elem =
    List.for_all
      (fun (st : stmt) ->
        match st.s with
        | ExprS { e = Assign (_, { e = Index ({ e = Var _; _ }, { e = Var v; _ }); _ }, rhs); _ }
          ->
            v = c.c_iv && is_pure rhs
        | _ -> false)
      c.c_body
  in
  ignore (Ast_map.map_stmts { Ast_map.default with expr } c.c_body);
  all_assign_to_elem && !ok

(* ------------------------------------------------------------------ *)
(* Site-counting framework                                             *)

(* Each operator is a single traversal that increments a site counter at
   every candidate and rewrites exactly the site whose ordinal equals
   [target] ([-1] counts without rewriting). The RNG is consulted only
   at the chosen site, so the counting pass never perturbs the stream. *)
let make_counter target =
  let n = ref 0 in
  let here () =
    let k = !n in
    incr n;
    k = target
  in
  (n, here)

let fresh_name rng ~suffix ~used base =
  let rec go () =
    let cand = Printf.sprintf "%s_%s%d" base suffix (Prng.int rng 900 + 100) in
    if SS.mem cand used then go () else cand
  in
  go ()

let top_level_names (u : tunit) =
  List.fold_left
    (fun acc t ->
      match t with
      | Func f -> SS.add f.f_name acc
      | GlobalVar (_, _, n, _, _) -> SS.add n acc
      | Record r -> SS.add r.r_name acc
      | Using _ | TopDirective _ -> acc)
    SS.empty u.t_tops

(* --- commute: a OP b -> b OP a for pure operands of + and * (IEEE
   addition and multiplication are commutative bitwise) --- *)
let run_commute ~rng:_ ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let expr m (e : expr) =
    let e = Ast_map.default_expr m e in
    match e.e with
    | Binary (((Add | Mul) as op), a, b) when is_pure a && is_pure b ->
        if here () then (
          detail := Printf.sprintf "commute %s" (binop_name op);
          { e with e = Binary (op, b, a) })
        else e
    | _ -> e
  in
  let u' = Ast_map.map_tunit { Ast_map.default with expr } u in
  (!n, u')

(* --- reassoc: (a OP b) OP c <-> a OP (b OP c), integer-typed operands
   only (native OCaml ints neither trap nor round) --- *)
let run_reassoc ~rng:_ ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let rewrite_func f =
    match f.f_body with
    | None -> f
    | Some body ->
        let env = func_env f in
        let expr m (e : expr) =
          let e = Ast_map.default_expr m e in
          match e.e with
          | Binary (((Add | Mul) as op), { e = Binary (op2, a, b); _ }, c)
            when op = op2 && int_typed env a && int_typed env b && int_typed env c
                 && is_pure a && is_pure b && is_pure c ->
              if here () then (
                detail := Printf.sprintf "reassoc-right %s" (binop_name op);
                { e with e = Binary (op, a, mk_e (Binary (op, b, c))) })
              else e
          | Binary (((Add | Mul) as op), a, { e = Binary (op2, b, c); _ })
            when op = op2 && int_typed env a && int_typed env b && int_typed env c
                 && is_pure a && is_pure b && is_pure c ->
              if here () then (
                detail := Printf.sprintf "reassoc-left %s" (binop_name op);
                { e with e = Binary (op, mk_e (Binary (op, a, b)), c) })
              else e
          | _ -> e
        in
        { f with f_body = Some (Ast_map.map_stmts { Ast_map.default with expr } body) }
  in
  let tops =
    List.map (function Func f -> Func (rewrite_func f) | t -> t) u.t_tops
  in
  (!n, { u with t_tops = tops })

(* --- rename: one local (param or declared name) of one function,
   uniformly, to a fresh name --- *)
let run_rename ~rng ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let globals = top_level_names u in
  let rename_in_func f old fresh =
    let expr m (e : expr) =
      let e = Ast_map.default_expr m e in
      match e.e with Var v when v = old -> { e with e = Var fresh } | _ -> e
    in
    let stmt m (st : stmt) =
      let st = Ast_map.default_stmt m st in
      match st.s with
      | Decl (t, names) ->
          let names =
            List.map (fun (nm, init) -> ((if nm = old then fresh else nm), init)) names
          in
          { st with s = Decl (t, names) }
      | _ -> st
    in
    let mapper = { Ast_map.default with expr; stmt } in
    {
      f with
      f_params =
        List.map
          (fun p -> if p.p_name = old then { p with p_name = fresh } else p)
          f.f_params;
      f_body = Option.map (Ast_map.map_stmts mapper) f.f_body;
    }
  in
  let rewrite_func f =
    match f.f_body with
    | None -> f
    | Some _ ->
        let env = func_env f in
        let candidates =
          List.filter
            (fun nm -> not (SS.mem nm globals))
            (List.sort_uniq String.compare
               (Hashtbl.fold (fun k _ acc -> k :: acc) env []))
        in
        List.fold_left
          (fun f nm ->
            if here () then (
              let used = SS.union globals (idents_of_func f) in
              let fresh = fresh_name rng ~suffix:"r" ~used nm in
              detail := Printf.sprintf "rename %s->%s" nm fresh;
              rename_in_func f nm fresh)
            else f)
          f candidates
  in
  let tops =
    List.map (function Func f -> Func (rewrite_func f) | t -> t) u.t_tops
  in
  (!n, { u with t_tops = tops })

(* --- swap-stmts: exchange two adjacent simple statements with disjoint
   read/write footprints --- *)
let run_swap ~rng:_ ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let independent a b =
    match (simple_stmt_rw a, simple_stmt_rw b) with
    | Some (ra, wa), Some (rb, wb) ->
        SS.is_empty (SS.inter wa wb)
        && SS.is_empty (SS.inter wa rb)
        && SS.is_empty (SS.inter ra wb)
    | _ -> false
  in
  let stmts m ss =
    let ss = Ast_map.default_stmts m ss in
    let rec scan = function
      | a :: b :: rest when independent a b ->
          if here () then (
            detail := "swap adjacent stmts";
            b :: a :: rest)
          else a :: scan (b :: rest)
      | st :: rest -> st :: scan rest
      | [] -> []
    in
    scan ss
  in
  let u' = Ast_map.map_tunit { Ast_map.default with stmts } u in
  (!n, u')

(* --- fission: split a same-index-only counted loop into two loops ---
   All dependences are same-iteration (proved by [same_index_only]), so
   any split preserves the final store. *)
let run_fission ~rng ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let stmts m ss =
    let ss = Ast_map.default_stmts m ss in
    let rec scan = function
      | st :: rest -> (
          match canon_loop st with
          | Some c when List.length c.c_body >= 2 && same_index_only c ->
              if here () then (
                let cut = Prng.range rng 1 (List.length c.c_body - 1) in
                detail := Printf.sprintf "fission at %d/%d" cut (List.length c.c_body);
                let before = List.filteri (fun i _ -> i < cut) c.c_body in
                let after = List.filteri (fun i _ -> i >= cut) c.c_body in
                rebuild_canon { c with c_body = before }
                :: rebuild_canon { c with c_body = after }
                :: rest)
              else st :: scan rest
          | _ -> st :: scan rest)
      | [] -> []
    in
    scan ss
  in
  let u' = Ast_map.map_tunit { Ast_map.default with stmts } u in
  (!n, u')

(* --- tile: strip-mine a counted loop; the iteration sequence is
   unchanged, so this is unconditionally observation-preserving as long
   as the body never writes the index or the bound --- *)
let run_tile ~rng ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let stmt m (st : stmt) =
    let st = Ast_map.default_stmt m st in
    match canon_loop st with
    | Some c -> (
        match deep_writes c.c_body with
        | exception Opaque -> st
        | direct, _ ->
            let bound_vars = reads_of c.c_bound in
            if SS.mem c.c_iv direct || not (SS.is_empty (SS.inter bound_vars direct))
            then st
            else if here () then (
              let tile = Prng.pick rng [| 4; 8; 16; 32 |] in
              let used = SS.add c.c_iv (SS.union bound_vars direct) in
              let outer = fresh_name rng ~suffix:"t" ~used c.c_iv in
              detail := Printf.sprintf "tile %s by %d" c.c_iv tile;
              let inner =
                mk_s
                  (For
                     ( Some (mk_s (Decl (c.c_ity, [ (c.c_iv, Some (mk_e (Var outer))) ]))),
                       Some
                         (mk_e
                            (Binary
                               ( LAnd,
                                 mk_e
                                   (Binary
                                      ( Lt,
                                        mk_e (Var c.c_iv),
                                        mk_e (Binary (Add, mk_e (Var outer), mk_e (IntE tile)))
                                      )),
                                 mk_e (Binary (Lt, mk_e (Var c.c_iv), c.c_bound)) ))),
                       Some (mk_e (Unary (PostInc, mk_e (Var c.c_iv)))),
                       c.c_body ))
              in
              mk_s
                (For
                   ( Some (mk_s (Decl (c.c_ity, [ (outer, Some (mk_e (IntE c.c_lo))) ]))),
                     Some (mk_e (Binary (Lt, mk_e (Var outer), c.c_bound))),
                     Some (mk_e (Assign (Some Add, mk_e (Var outer), mk_e (IntE tile)))),
                     [ inner ] )))
            else st)
    | None -> st
  in
  let u' = Ast_map.map_tunit { Ast_map.default with stmt } u in
  (!n, u')

(* --- interchange: swap two perfectly nested rectangular counted loops
   whose iterations are fully independent (writes only to array cells
   addressed by both index variables; written arrays never read; no
   scalar writes) --- *)
let run_interchange ~rng:_ ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let body_independent outer inner =
    let written = ref SS.empty in
    let ok =
      List.for_all
        (fun (st : stmt) ->
          match st.s with
          | ExprS { e = Assign (None, { e = Index ({ e = Var a; _ }, idx); _ }, rhs); _ }
            when is_pure idx && is_pure rhs ->
              let iv = reads_of idx in
              written := SS.add a !written;
              SS.mem outer.c_iv iv && SS.mem inner.c_iv iv
          | _ -> false)
        inner.c_body
    in
    ok
    && List.for_all
         (fun (st : stmt) ->
           match st.s with
           | ExprS { e = Assign (None, { e = Index (_, idx); _ }, rhs); _ } ->
               SS.is_empty (SS.inter !written (reads_of rhs))
               && SS.is_empty (SS.inter !written (reads_of idx))
           | _ -> false)
         inner.c_body
  in
  let stmt m (st : stmt) =
    let st = Ast_map.default_stmt m st in
    match canon_loop st with
    | Some outer -> (
        match outer.c_body with
        | [ only ] -> (
            match canon_loop only with
            | Some inner
              when (not (SS.mem outer.c_iv (reads_of inner.c_bound)))
                   && (not (SS.mem inner.c_iv (reads_of outer.c_bound)))
                   && body_independent outer inner ->
                if here () then (
                  detail :=
                    Printf.sprintf "interchange %s<->%s" outer.c_iv inner.c_iv;
                  rebuild_canon
                    {
                      inner with
                      c_body = [ rebuild_canon { outer with c_body = inner.c_body } ];
                    })
                else st
            | _ -> st)
        | _ -> st)
    | None -> st
  in
  let u' = Ast_map.map_tunit { Ast_map.default with stmt } u in
  (!n, u')

(* --- directive clause permutation: reorder the clause tail after the
   construct head words (clause order is semantically irrelevant; the
   interpreter executes directives serially either way) --- *)
let head_words =
  SS.of_list
    [
      "parallel"; "for"; "simd"; "target"; "teams"; "distribute"; "loop";
      "kernels"; "data"; "enter"; "exit"; "declare"; "end"; "do"; "sections";
      "section"; "single"; "task"; "serial";
    ]

let split_head clauses =
  let rec go acc = function
    | ((w, None) as c) :: rest when SS.mem w head_words -> go (c :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] clauses

let run_dir_permute ~rng ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let rewrite_directive d =
    let head, tail = split_head d.d_clauses in
    if List.length tail >= 2 && here () then (
      let arr = Array.of_list tail in
      Prng.shuffle rng arr;
      let tail' = Array.to_list arr in
      let tail' =
        if tail' = tail then List.tl tail @ [ List.hd tail ] else tail'
      in
      detail := Printf.sprintf "permute %d clauses" (List.length tail);
      { d with d_clauses = head @ tail' })
    else d
  in
  let stmt m (st : stmt) =
    let st = Ast_map.default_stmt m st in
    match st.s with
    | Directive (d, body) -> { st with s = Directive (rewrite_directive d, body) }
    | _ -> st
  in
  let u' = Ast_map.map_tunit { Ast_map.default with stmt } u in
  (!n, u')

(* --- directive hoist/fuse: [parallel for] <-> [parallel { for }]
   (and the OpenACC [parallel loop] analogue). The interpreter runs
   directive bodies serially, so both spellings execute identically. *)
let run_dir_hoist ~rng:_ ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let stmt m (st : stmt) =
    let st = Ast_map.default_stmt m st in
    match st.s with
    | Directive (d, Some body) -> (
        match d.d_clauses with
        | ("parallel", None) :: (((("for" | "loop"), None) :: _) as inner_clauses) ->
            if here () then (
              detail := "hoist parallel";
              let inner = { d with d_clauses = inner_clauses } in
              {
                st with
                s =
                  Directive
                    ( { d with d_clauses = [ ("parallel", None) ] },
                      Some (mk_s (Directive (inner, Some body))) );
              })
            else st
        | [ ("parallel", None) ] -> (
            match body.s with
            | Directive (({ d_clauses = (("for" | "loop"), None) :: _; _ } as inner), Some governed)
              when inner.d_origin = d.d_origin ->
                if here () then (
                  detail := "fuse parallel";
                  {
                    st with
                    s =
                      Directive
                        ( { d with d_clauses = ("parallel", None) :: inner.d_clauses },
                          Some governed );
                  })
                else st
            | _ -> st)
        | _ -> st)
    | _ -> st
  in
  let u' = Ast_map.map_tunit { Ast_map.default with stmt } u in
  (!n, u')

(* --- extract: outline a counted loop into a fresh void function ---
   Arrays travel as pointers (the interpreter's array values alias, like
   C pointers), scalars by value (hence must be read-only inside). *)
let scalar_ty = function
  | TBool | TChar | TInt | TLong | TSizeT | TFloat | TDouble -> true
  | _ -> false

let rec base_passable = function
  | TPtr t -> ( match t with TConst t -> scalar_ty t | t -> scalar_ty t)
  | TArr (t, _) -> base_passable (TPtr t)
  | TConst t -> base_passable t
  | t -> scalar_ty t

let param_ty_of = function TArr (t, _) -> TPtr t | t -> t

(* Free variables of a loop, in first-occurrence order, minus callee
   positions and names bound inside. *)
let loop_free_vars (c : canon) =
  let order = ref [] in
  let seen = ref SS.empty in
  let bound = ref (SS.singleton c.c_iv) in
  let note n =
    if (not (SS.mem n !seen)) && not (SS.mem n !bound) then (
      seen := SS.add n !seen;
      order := n :: !order)
  in
  let expr m (e : expr) =
    match e.e with
    | Var n ->
        note n;
        e
    | Call ({ e = Var _; _ }, _, args) ->
        (* a named callee is a global function reference, not a free
           variable to pass — visit only the arguments *)
        List.iter (fun a -> ignore (Ast_map.map_expr m a)) args;
        e
    | _ -> Ast_map.default_expr m e
  in
  let stmt m (st : stmt) =
    (match st.s with
    | Decl (_, names) -> List.iter (fun (n, _) -> bound := SS.add n !bound) names
    | _ -> ());
    Ast_map.default_stmt m st
  in
  ignore (Ast_map.map_stmts { Ast_map.default with expr; stmt } c.c_body);
  ignore (Ast_map.map_expr { Ast_map.default with expr; stmt } c.c_bound);
  List.rev !order

let run_extract ~rng ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let globals = top_level_names u in
  let new_tops = ref [] in
  let rewrite_func f =
    match f.f_body with
    | None -> f
    | Some _ when List.exists (fun a -> a = AGlobal || a = ADevice) f.f_attrs -> f
    | Some body ->
        let env = func_env f in
        let stmt m (st : stmt) =
          let st = Ast_map.default_stmt m st in
          match canon_loop st with
          | Some c -> (
              match deep_writes c.c_body with
              | exception Opaque -> st
              | direct, _ when contains_return c.c_body -> ignore direct; st
              | direct, _ ->
                  let free = loop_free_vars c in
                  (* a direct write ([v = ..], [v++]) to any free name
                     would be lost across the by-value call boundary (or
                     rebind a pointer copy), so reject those outright *)
                  let params_ok =
                    List.for_all
                      (fun v ->
                        (not (SS.mem v direct))
                        &&
                        match Hashtbl.find_opt env v with
                        | Some (Some t) -> base_passable t
                        | Some None -> false
                        | None -> true)
                      free
                  in
                  let typed_free =
                    List.filter (fun v -> Hashtbl.mem env v) free
                  in
                  if not params_ok then st
                  else if here () then (
                    let used = SS.union globals (idents_of_func f) in
                    let fname = fresh_name rng ~suffix:"kex" ~used "fn" in
                    detail :=
                      Printf.sprintf "extract %s(%s)" fname
                        (String.concat "," typed_free);
                    let params =
                      List.map
                        (fun v ->
                          let t =
                            match Hashtbl.find_opt env v with
                            | Some (Some t) -> param_ty_of t
                            | _ -> assert false
                          in
                          { p_ty = t; p_name = v; p_loc = Loc.none })
                        typed_free
                    in
                    new_tops :=
                      Func
                        {
                          f_attrs = [];
                          f_tparams = [];
                          f_ret = TVoid;
                          f_name = fname;
                          f_params = params;
                          f_body = Some [ rebuild_canon c ];
                          f_loc = Loc.none;
                        }
                      :: !new_tops;
                    mk_s
                      (ExprS
                         (mk_e
                            (Call
                               ( mk_e (Var fname),
                                 [],
                                 List.map (fun v -> mk_e (Var v)) typed_free )))))
                  else st)
          | None -> st
        in
        { f with f_body = Some (Ast_map.map_stmts { Ast_map.default with stmt } body) }
  in
  let tops =
    List.concat_map
      (function
        | Func f ->
            new_tops := [];
            let f' = rewrite_func f in
            List.rev !new_tops @ [ Func f' ]
        | t -> [ t ])
      u.t_tops
  in
  (!n, { u with t_tops = tops })

(* --- inline: substitute a call to a local void helper with its body,
   parameters replaced by the (pure) argument expressions and body
   locals freshened --- *)
let run_inline ~rng ~target ~detail (u : tunit) =
  let n, here = make_counter target in
  let inlinable =
    List.filter_map
      (function
        | Func f -> (
            match f.f_body with
            | Some body
              when f.f_ret = TVoid && f.f_tparams = []
                   && List.for_all (fun a -> a = AInline || a = AStatic) f.f_attrs
                   && not (contains_return body) -> (
                match deep_writes body with
                | exception Opaque -> None
                | direct, _
                  when List.exists (fun p -> SS.mem p.p_name direct) f.f_params ->
                    None
                | _ -> Some (f.f_name, f))
            | _ -> None)
        | _ -> None)
      u.t_tops
  in
  let substitute body subst rename =
    let expr m (e : expr) =
      match e.e with
      | Var v -> (
          match List.assoc_opt v subst with
          | Some arg -> arg
          | None -> (
              match List.assoc_opt v rename with
              | Some v' -> { e with e = Var v' }
              | None -> e))
      | _ -> Ast_map.default_expr m e
    in
    let stmt m (st : stmt) =
      let st = Ast_map.default_stmt m st in
      match st.s with
      | Decl (t, names) ->
          let names =
            List.map
              (fun (nm, init) ->
                ((match List.assoc_opt nm rename with Some v -> v | None -> nm), init))
              names
          in
          { st with s = Decl (t, names) }
      | _ -> st
    in
    Ast_map.map_stmts { Ast_map.default with expr; stmt } body
  in
  let local_names body =
    let acc = ref [] in
    let stmt m (st : stmt) =
      (match st.s with
      | Decl (_, names) -> List.iter (fun (nm, _) -> acc := nm :: !acc) names
      | _ -> ());
      Ast_map.default_stmt m st
    in
    ignore (Ast_map.map_stmts { Ast_map.default with stmt } body);
    List.sort_uniq String.compare !acc
  in
  let rewrite_caller caller =
    match caller.f_body with
    | None -> caller
    | Some body ->
        let stmt m (st : stmt) =
          let st = Ast_map.default_stmt m st in
          match st.s with
          | ExprS { e = Call ({ e = Var fn; _ }, [], args); _ } -> (
              match List.assoc_opt fn inlinable with
              | Some callee
                when callee.f_name <> caller.f_name
                     && List.length args = List.length callee.f_params
                     && List.for_all is_pure args ->
                  if here () then (
                    detail := Printf.sprintf "inline %s" fn;
                    let cbody = Option.get callee.f_body in
                    let used =
                      SS.union (top_level_names u)
                        (SS.union (idents_of_func caller) (idents_of_func callee))
                    in
                    let rename =
                      List.map
                        (fun nm -> (nm, fresh_name rng ~suffix:"i" ~used nm))
                        (local_names cbody)
                    in
                    let subst =
                      List.map2 (fun p a -> (p.p_name, a)) callee.f_params args
                    in
                    { st with s = Block (substitute cbody subst rename) })
                  else st
              | _ -> st)
          | _ -> st
        in
        { caller with f_body = Some (Ast_map.map_stmts { Ast_map.default with stmt } body) }
  in
  let tops =
    List.map (function Func f -> Func (rewrite_caller f) | t -> t) u.t_tops
  in
  (!n, { u with t_tops = tops })

(* ------------------------------------------------------------------ *)

let runner_of = function
  | Rename -> run_rename
  | Commute -> run_commute
  | Reassoc -> run_reassoc
  | SwapStmts -> run_swap
  | Fission -> run_fission
  | Tile -> run_tile
  | Interchange -> run_interchange
  | DirectivePermute -> run_dir_permute
  | DirectiveHoist -> run_dir_hoist
  | Extract -> run_extract
  | Inline -> run_inline

let sites op (u : tunit) =
  let detail = ref "" in
  let rng = Prng.create 0 in
  let count, _ = (runner_of op) ~rng ~target:(-1) ~detail u in
  count

let apply rng op (u : tunit) : (tunit * applied) option =
  let total = sites op u in
  if total = 0 then None
  else
    let site = Prng.int rng total in
    let detail = ref "" in
    let _, u' = (runner_of op) ~rng ~target:site ~detail u in
    Some (u', { ap_op = op; ap_site = site; ap_sites = total; ap_detail = !detail })
