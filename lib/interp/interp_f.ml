module Loc = Sv_util.Loc
module Coverage = Sv_util.Coverage
open Sv_lang_f.Ast

type value =
  | FUnit
  | FIntV of int
  | FFloatV of float
  | FBoolV of bool
  | FStrV of string
  | FArrV of float array
  | FRefV of value ref

exception Runtime_error of string * Loc.t
exception Exit_loop
exception Cycle_loop
exception Return_unit
exception Stop_program

(* One program unit's activation: a slot per name the unit can bind.
   Fortran binds implicitly (an assignment, a [do] variable or an
   [allocate] creates its name), so a slot holds [unbound] until the
   first binding runs and every read checks it. *)
type frame = value ref array

(* One source line's execution count; see [coverage_of]. *)
type cell = { mutable hits : int }

(* A unit compiled for calling: its frame size, the slots of its dummy
   arguments in order, its declarations and its body. *)
type code = { size : int; params : int list; declare : frame -> unit; body : frame -> unit }

type uentry = { unit_ : prog_unit; mutable code : code option }

type state = {
  units : (string, uentry) Hashtbl.t;
  cells : (string * int, cell) Hashtbl.t;
  out : Buffer.t;
  mutable steps : int;
  max_steps : int;
}

type outcome = {
  result : (unit, string) Result.t;
  coverage : Coverage.t;
  output : string;
  steps : int;
}

let err loc fmt = Printf.ksprintf (fun m -> raise (Runtime_error (m, loc))) fmt

let value_to_float = function
  | FIntV n -> Some (float_of_int n)
  | FFloatV f -> Some f
  | FBoolV b -> Some (if b then 1.0 else 0.0)
  | _ -> None

let observation o = (o.result, o.output)

let to_float loc v =
  match value_to_float v with Some f -> f | None -> err loc "expected a number"

let to_int loc v =
  match v with
  | FIntV n -> n
  | FFloatV f -> int_of_float f
  | _ -> err loc "expected an integer"

let to_bool loc v =
  match v with
  | FBoolV b -> b
  | FIntV n -> n <> 0
  | _ -> err loc "expected a logical"

let exhausted (st : state) loc = err loc "step budget exhausted (%d)" st.max_steps

let[@inline] tick (st : state) loc =
  let n = st.steps + 1 in
  st.steps <- n;
  if n > st.max_steps then exhausted st loc

let cell_of st (loc : Loc.t) =
  if Loc.is_none loc then None
  else
    let key = (loc.Loc.file, loc.Loc.start.Loc.line) in
    match Hashtbl.find_opt st.cells key with
    | Some c -> Some c
    | None ->
        let c = { hits = 0 } in
        Hashtbl.replace st.cells key c;
        Some c

let hit = function Some c -> c.hits <- c.hits + 1 | None -> ()

(* Never written: a slot holding it has no binding yet. *)
let unbound : value ref = ref FUnit

(* --- elementwise array arithmetic ------------------------------------- *)

(* [binf loc op] is the float operator [op]; an operator that is not
   arithmetic raises only when applied, as an elementwise operation over
   an empty array never applies it. *)
let binf loc op : float -> float -> float =
  match op with
  | "+" -> ( +. )
  | "-" -> ( -. )
  | "*" -> ( *. )
  | "/" -> ( /. )
  | "**" -> ( ** )
  | _ -> fun _ _ -> err loc "operator %s is not arithmetic" op

(* --- compilation ---------------------------------------------------------- *)

(* Compiling resolves each name to its unit's slot, each call to its
   subroutine or intrinsic and each operator to its function, and turns
   each node into a closure over the frame. Operands evaluate left then
   right, except the two arguments of an intrinsic, which evaluate right
   then left; the order decides which error a run reports. *)

(* Every name a unit can bind: its dummy arguments, declarations, and the
   targets of assignments, [do] loops, [allocate] and [deallocate]. *)
let unit_slots (u : prog_unit) =
  let slots = Hashtbl.create 32 in
  let add n = if not (Hashtbl.mem slots n) then Hashtbl.replace slots n (Hashtbl.length slots) in
  (match u.u_kind with Subroutine ps -> List.iter add ps | Program -> ());
  List.iter (fun d -> List.iter (fun (n, _, _) -> add n) d.d_names) u.u_decls;
  let rec stmt (s : stmt) =
    match s.s with
    | FAssign ({ e = FVar n | FRef (n, _); _ }, _) -> add n
    | FAssign _ | FCallS _ | FPrint _ | FReturn | FExit | FCycle | FStop _ -> ()
    | FIf (_, t, f) ->
        List.iter stmt t;
        List.iter stmt f
    | FDo (v, _, _, _, body) | FDoConcurrent (v, _, _, body) ->
        add v;
        List.iter stmt body
    | FDoWhile (_, body) | FDirective (_, body) -> List.iter stmt body
    | FAllocate allocs -> List.iter (fun (n, _) -> add n) allocs
    | FDeallocate names -> List.iter add names
  in
  List.iter stmt u.u_body;
  slots

(* The slot's cell, bound to [FUnit] by the first use that binds. *)
let bind_slot (fr : frame) i =
  let r = Array.unsafe_get fr i in
  if r != unbound then r
  else
    let r = ref FUnit in
    Array.unsafe_set fr i r;
    r

let rec compile_expr st slots (e : expr) : frame -> value =
  let loc = e.eloc in
  match e.e with
  | FInt n ->
      let v = FIntV n in
      fun _ -> v
  | FRealLit f ->
      let v = FFloatV f in
      fun _ -> v
  | FStr s ->
      let v = FStrV s in
      fun _ -> v
  | FBool b ->
      let v = FBoolV b in
      fun _ -> v
  | FVar name -> (
      match Hashtbl.find_opt slots name with
      | Some i ->
          fun fr ->
            let r = Array.unsafe_get fr i in
            if r != unbound then !r else err loc "unknown name %s" name
      | None -> fun _ -> err loc "unknown name %s" name)
  | FUn ("-", a) -> (
      let ca = compile_expr st slots a in
      fun fr ->
        match ca fr with
        | FIntV n -> FIntV (-n)
        | FFloatV f -> FFloatV (-.f)
        | FArrV arr -> FArrV (Array.map (fun x -> -.x) arr)
        | _ -> err loc "cannot negate value")
  | FUn (".not.", a) ->
      let ca = compile_expr st slots a in
      fun fr -> FBoolV (not (to_bool loc (ca fr)))
  | FUn (op, _) -> fun _ -> err loc "unknown unary %s" op
  | FBin (op, a, b) -> compile_bin st slots loc op a b
  | FRef (name, args) -> compile_ref st slots loc name args

and compile_bin st slots loc op a b =
  let ca = compile_expr st slots a and cb = compile_expr st slots b in
  let cmp (test : float -> float -> bool) fr =
    let va = ca fr in
    let vb = cb fr in
    let fa = to_float loc va in
    let fb = to_float loc vb in
    FBoolV (test fa fb)
  in
  match op with
  | ".and." ->
      fun fr ->
        let va = ca fr in
        let vb = cb fr in
        FBoolV (to_bool loc va && to_bool loc vb)
  | ".or." ->
      fun fr ->
        let va = ca fr in
        let vb = cb fr in
        FBoolV (to_bool loc va || to_bool loc vb)
  | "==" -> cmp (fun x y -> x = y)
  | "/=" -> cmp (fun x y -> x <> y)
  | "<" -> cmp (fun x y -> x < y)
  | ">" -> cmp (fun x y -> x > y)
  | "<=" -> cmp (fun x y -> x <= y)
  | ">=" -> cmp (fun x y -> x >= y)
  | _ -> (
      (* arithmetic, possibly elementwise with broadcasting *)
      let f = binf loc op in
      let int_op : int -> int -> value =
        match op with
        | "+" -> fun x y -> FIntV (x + y)
        | "-" -> fun x y -> FIntV (x - y)
        | "*" -> fun x y -> FIntV (x * y)
        | "/" -> fun x y -> FIntV (x / y)
        | "**" -> fun x y -> FFloatV (float_of_int x ** float_of_int y)
        | _ -> fun _ _ -> err loc "unknown operator %s" op
      in
      let is_div = op = "/" in
      fun fr ->
        let va = ca fr in
        let vb = cb fr in
        match (va, vb) with
        | FFloatV x, FFloatV y -> FFloatV (f x y)
        | FArrV x, FArrV y ->
            let n = min (Array.length x) (Array.length y) in
            FArrV (Array.init n (fun i -> f x.(i) y.(i)))
        | FArrV x, v ->
            let s = to_float loc v in
            FArrV (Array.map (fun e -> f e s) x)
        | v, FArrV y ->
            let s = to_float loc v in
            FArrV (Array.map (fun e -> f s e) y)
        | FIntV x, FIntV y when (not is_div) || (y <> 0 && x mod y = 0) -> int_op x y
        | _ ->
            let fb = to_float loc vb in
            FFloatV (f (to_float loc va) fb))

(* The paren form: an element, slice or whole array when the name is
   bound, an intrinsic function otherwise. *)
and compile_ref st slots loc name args =
  let intrinsic = compile_intrinsic st slots loc name args in
  let bound : value ref -> frame -> value =
    match args with
    | [ AExpr i ] -> (
        let ci = compile_expr st slots i in
        fun r fr ->
          match !r with
          | FArrV arr ->
              let idx = to_int loc (ci fr) in
              if idx < 1 || idx > Array.length arr then
                err loc "index %d out of bounds [1,%d]" idx (Array.length arr);
              FFloatV (Array.unsafe_get arr (idx - 1))
          | _ -> err loc "bad reference to %s" name)
    | [ ARange (None, None) ] -> (
        fun r _ -> match !r with FArrV arr -> FArrV arr | _ -> err loc "bad reference to %s" name)
    | [ ARange (lo, hi) ] -> (
        let clo = Option.map (compile_expr st slots) lo in
        let chi = Option.map (compile_expr st slots) hi in
        fun r fr ->
          match !r with
          | FArrV arr ->
              let l = match clo with Some c -> to_int loc (c fr) | None -> 1 in
              let h = match chi with Some c -> to_int loc (c fr) | None -> Array.length arr in
              FArrV (Array.sub arr (l - 1) (h - l + 1))
          | _ -> err loc "bad reference to %s" name)
    | [] -> fun r _ -> !r
    | _ -> fun _ _ -> err loc "bad reference to %s" name
  in
  match Hashtbl.find_opt slots name with
  | Some i ->
      fun fr ->
        let r = Array.unsafe_get fr i in
        if r != unbound then bound r fr else intrinsic fr
  | None -> intrinsic

and compile_intrinsic st slots loc name args : frame -> value =
  let ev = function
    | AExpr e -> compile_expr st slots e
    | ARange _ -> fun _ -> err loc "range in intrinsic argument"
  in
  let one =
    match args with
    | [ a ] -> ev a
    | _ -> fun _ -> err loc "%s expects one argument" name
  in
  let two : frame -> value * value =
    match args with
    | [ a; b ] ->
        let ca = ev a and cb = ev b in
        fun fr ->
          let vb = cb fr in
          (ca fr, vb)
    | _ -> fun _ -> err loc "%s expects two arguments" name
  in
  match name with
  | "sqrt" -> (
      fun fr ->
        match one fr with
        | FArrV arr -> FArrV (Array.map sqrt arr)
        | v -> FFloatV (sqrt (to_float loc v)))
  | "abs" -> (
      (* elemental intrinsic: applies elementwise to array arguments *)
      fun fr ->
        match one fr with
        | FIntV n -> FIntV (Stdlib.abs n)
        | FArrV arr -> FArrV (Array.map Float.abs arr)
        | v -> FFloatV (Float.abs (to_float loc v)))
  | "exp" -> fun fr -> FFloatV (exp (to_float loc (one fr)))
  | "mod" ->
      fun fr ->
        let a, b = two fr in
        FIntV (to_int loc a mod to_int loc b)
  | "max" ->
      fun fr ->
        let a, b = two fr in
        FFloatV (Float.max (to_float loc a) (to_float loc b))
  | "min" ->
      fun fr ->
        let a, b = two fr in
        FFloatV (Float.min (to_float loc a) (to_float loc b))
  | "real" | "dble" -> (
      match args with
      | [ a ] | [ a; _ ] ->
          let ca = ev a in
          fun fr -> FFloatV (to_float loc (ca fr))
      | _ -> fun _ -> err loc "real expects one or two arguments")
  | "int" -> fun fr -> FIntV (to_int loc (one fr))
  | "epsilon" -> fun _ -> FFloatV epsilon_float
  | "huge" -> fun _ -> FFloatV max_float
  | "size" -> (
      fun fr ->
        match one fr with
        | FArrV arr -> FIntV (Array.length arr)
        | _ -> err loc "size expects an array")
  | "sum" -> (
      fun fr ->
        match one fr with
        | FArrV arr -> FFloatV (Array.fold_left ( +. ) 0.0 arr)
        | v -> v)
  | "maxval" -> (
      fun fr ->
        match one fr with
        | FArrV arr -> FFloatV (Array.fold_left Float.max neg_infinity arr)
        | _ -> err loc "maxval expects an array")
  | "minval" -> (
      fun fr ->
        match one fr with
        | FArrV arr -> FFloatV (Array.fold_left Float.min infinity arr)
        | _ -> err loc "minval expects an array")
  | "dot_product" -> (
      fun fr ->
        match two fr with
        | FArrV a, FArrV b ->
            let n = min (Array.length a) (Array.length b) in
            let s = ref 0.0 in
            for i = 0 to n - 1 do
              s := !s +. (a.(i) *. b.(i))
            done;
            FFloatV !s
        | _ -> err loc "dot_product expects two arrays")
  | "omp_get_num_threads" | "omp_get_max_threads" -> fun _ -> FIntV 1
  | "omp_get_thread_num" -> fun _ -> FIntV 0
  | _ -> fun _ -> err loc "unknown function %s" name

(* --- statements -------------------------------------------------------- *)

and compile_stmts st slots stmts : frame -> unit =
  match Array.of_list (List.map (compile_stmt st slots) stmts) with
  | [||] -> fun _ -> ()
  | [| a |] -> a
  | cs ->
      fun fr ->
        for i = 0 to Array.length cs - 1 do
          (Array.unsafe_get cs i) fr
        done

(* Each statement counts one step, checks the budget, then counts its
   line, before it runs. *)
and compile_stmt st slots (s : stmt) : frame -> unit =
  let loc = s.sloc in
  let run = compile_stmt_node st slots s in
  match cell_of st loc with
  | None ->
      fun fr ->
        tick st loc;
        run fr
  | Some c ->
      fun fr ->
        tick st loc;
        c.hits <- c.hits + 1;
        run fr

and compile_stmt_node st slots (s : stmt) : frame -> unit =
  let loc = s.sloc in
  let slot name = Hashtbl.find slots name in
  match s.s with
  | FAssign (lhs, rhs) -> compile_assign st slots loc lhs rhs
  | FCallS (name, args) -> compile_call st slots loc name args
  | FIf (c, t, f) ->
      let cc = compile_expr st slots c and cloc = c.eloc in
      let ct = compile_stmts st slots t and cf = compile_stmts st slots f in
      fun fr -> if to_bool cloc (cc fr) then ct fr else cf fr
  | FDo (v, lo, hi, step, body) ->
      let clo = compile_expr st slots lo and chi = compile_expr st slots hi in
      let cstep = Option.map (compile_expr st slots) step in
      let iv = slot v in
      let cb = compile_stmts st slots body in
      fun fr ->
        let l = to_int loc (clo fr) in
        let h = to_int loc (chi fr) in
        let stp = match cstep with Some c -> to_int loc (c fr) | None -> 1 in
        let r = bind_slot fr iv in
        let rec loop i =
          if (stp > 0 && i <= h) || (stp < 0 && i >= h) then begin
            r := FIntV i;
            (try cb fr with Cycle_loop -> ());
            loop (i + stp)
          end
        in
        (try loop l with Exit_loop -> ())
  | FDoConcurrent (v, lo, hi, body) -> (
      let clo = compile_expr st slots lo and chi = compile_expr st slots hi in
      let iv = slot v in
      let cb = compile_stmts st slots body in
      fun fr ->
        let l = to_int loc (clo fr) in
        let h = to_int loc (chi fr) in
        let r = bind_slot fr iv in
        try
          for i = l to h do
            r := FIntV i;
            try cb fr with Cycle_loop -> ()
          done
        with Exit_loop -> ())
  | FDoWhile (c, body) -> (
      let cc = compile_expr st slots c and cloc = c.eloc in
      let cb = compile_stmts st slots body in
      fun fr ->
        try
          while to_bool cloc (cc fr) do
            try cb fr with Cycle_loop -> ()
          done
        with Exit_loop -> ())
  | FAllocate allocs ->
      let cs =
        List.map (fun (name, dims) -> (slot name, List.map (compile_expr st slots) dims)) allocs
      in
      fun fr ->
        List.iter
          (fun (i, dims) ->
            let n = List.fold_left (fun acc d -> acc * to_int loc (d fr)) 1 dims in
            let r = bind_slot fr i in
            r := FArrV (Array.make n 0.0))
          cs
  | FDeallocate names ->
      let is = List.map slot names in
      fun fr -> List.iter (fun i -> bind_slot fr i := FUnit) is
  | FDirective (_, body) -> compile_stmts st slots body
  | FPrint args ->
      let cs = List.map (compile_expr st slots) args in
      fun fr ->
        let parts =
          List.map
            (fun c ->
              match c fr with
              | FStrV s -> s
              | FIntV n -> string_of_int n
              | FFloatV f -> Printf.sprintf "%.6f" f
              | FBoolV b -> if b then "T" else "F"
              | FArrV arr -> Printf.sprintf "<array[%d]>" (Array.length arr)
              | _ -> "?")
            cs
        in
        Buffer.add_string st.out (String.concat " " parts);
        Buffer.add_char st.out '\n'
  | FReturn -> fun _ -> raise_notrace Return_unit
  | FExit -> fun _ -> raise_notrace Exit_loop
  | FCycle -> fun _ -> raise_notrace Cycle_loop
  | FStop _ -> fun _ -> raise_notrace Stop_program

and compile_assign st slots loc lhs rhs : frame -> unit =
  let cr = compile_expr st slots rhs in
  let slot name = Hashtbl.find slots name in
  match lhs.e with
  | FVar name -> (
      let i = slot name in
      fun fr ->
        let v = cr fr in
        let r = bind_slot fr i in
        match (!r, v) with
        | FArrV dst, FArrV src -> Array.blit src 0 dst 0 (min (Array.length src) (Array.length dst))
        | FArrV dst, other -> Array.fill dst 0 (Array.length dst) (to_float loc other)
        | _ -> r := v)
  | FRef (name, [ AExpr ix ]) -> (
      let i = slot name and ci = compile_expr st slots ix in
      fun fr ->
        let v = cr fr in
        let r = bind_slot fr i in
        match !r with
        | FArrV arr ->
            let idx = to_int loc (ci fr) in
            if idx < 1 || idx > Array.length arr then
              err loc "index %d out of bounds [1,%d]" idx (Array.length arr);
            Array.unsafe_set arr (idx - 1) (to_float loc v)
        | _ -> err loc "%s is not an array" name)
  | FRef (name, [ ARange (lo, hi) ]) -> (
      let i = slot name in
      let clo = Option.map (compile_expr st slots) lo in
      let chi = Option.map (compile_expr st slots) hi in
      fun fr ->
        let v = cr fr in
        let r = bind_slot fr i in
        match !r with
        | FArrV arr -> (
            let l = match clo with Some c -> to_int loc (c fr) | None -> 1 in
            let h = match chi with Some c -> to_int loc (c fr) | None -> Array.length arr in
            match v with
            | FArrV src ->
                for k = l to h do
                  arr.(k - 1) <- src.(k - l)
                done
            | other ->
                let x = to_float loc other in
                for k = l to h do
                  arr.(k - 1) <- x
                done)
        | _ -> err loc "%s is not an array" name)
  | _ ->
      fun fr ->
        ignore (cr fr);
        err loc "left-hand side is not assignable"

and compile_call st slots loc name args : frame -> unit =
  match Hashtbl.find_opt st.units name with
  | None -> (
      (* intrinsic subroutines *)
      match name with
      | "random_number" -> (
          match args with
          | [ { e = FVar n; _ } ] -> (
              let get = arg_ref slots loc n in
              fun fr ->
                let r = get fr in
                (* deterministic pseudo-random fill *)
                match !r with
                | FArrV arr ->
                    Array.iteri (fun i _ -> arr.(i) <- float_of_int ((i * 37) mod 100) /. 100.0) arr
                | _ -> r := FFloatV 0.5)
          | _ -> fun _ -> err loc "random_number expects a variable")
      | "cpu_time" | "system_clock" -> fun _ -> ()
      | _ -> fun _ -> err loc "unknown subroutine %s" name)
  | Some ue ->
      let params = match ue.unit_.u_kind with Subroutine ps -> ps | Program -> [] in
      if List.length params <> List.length args then fun _ ->
        err loc "subroutine %s arity mismatch" name
      else
        (* pass-by-reference for variable arguments, by value otherwise *)
        let cargs =
          List.map
            (fun (a : expr) ->
              match a.e with
              | FVar n -> arg_ref slots loc n
              | _ ->
                  let c = compile_expr st slots a in
                  fun fr -> ref (c fr))
            args
        in
        fun fr ->
          let code = unit_code st ue in
          let callee = Array.make code.size unbound in
          List.iter2 (fun p a -> callee.(p) <- a fr) code.params cargs;
          code.declare callee;
          try code.body callee with Return_unit -> ()

(* a variable argument: the caller's own cell *)
and arg_ref slots loc n : frame -> value ref =
  match Hashtbl.find_opt slots n with
  | Some i ->
      fun fr ->
        let r = Array.unsafe_get fr i in
        if r != unbound then r else err loc "unknown name %s" n
  | None -> fun _ -> err loc "unknown name %s" n

and unit_code st ue =
  match ue.code with
  | Some c -> c
  | None ->
      let c = compile_unit st ue.unit_ in
      ue.code <- Some c;
      c

(* Declarations bind the names the caller did not pass, counting each
   declaration's line and then the unit's own line. *)
and compile_unit st (u : prog_unit) : code =
  let slots = unit_slots u in
  let decls =
    List.map
      (fun d ->
        let cell = cell_of st d.d_loc in
        let names =
          List.map
            (fun (name, rank, init) ->
              let cv =
                match init with
                | Some e -> compile_expr st slots e
                | None ->
                    let has_alloc = List.mem Allocatable d.d_attrs in
                    let attr_rank =
                      List.fold_left
                        (fun acc a -> match a with Dimension r -> max acc r | _ -> acc)
                        0 d.d_attrs
                    in
                    let v =
                      if has_alloc || max rank attr_rank > 0 then FUnit (* allocated later or dummy *)
                      else
                        match d.d_ty with
                        | FReal _ -> FFloatV 0.0
                        | FInteger -> FIntV 0
                        | FLogical -> FBoolV false
                        | FCharacter -> FStrV ""
                    in
                    fun _ -> v
              in
              (Hashtbl.find slots name, cv))
            d.d_names
        in
        (cell, names))
      u.u_decls
  in
  let ucell = cell_of st u.u_loc in
  let body = compile_stmts st slots u.u_body in
  let params =
    match u.u_kind with
    | Subroutine ps -> List.map (Hashtbl.find slots) ps
    | Program -> []
  in
  let declare fr =
    List.iter
      (fun (cell, names) ->
        hit cell;
        List.iter
          (fun (i, cv) ->
            if Array.unsafe_get fr i == unbound then begin
              let v = cv fr in
              fr.(i) <- ref v
            end)
          names)
      decls;
    hit ucell
  in
  { size = Hashtbl.length slots; params; declare; body }

(* --- entry ------------------------------------------------------------- *)

let coverage_of st =
  let files = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (file, line) c ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt files file) in
      Hashtbl.replace files file ((line, c.hits) :: prev))
    st.cells;
  Coverage.restore (Hashtbl.fold (fun file lines acc -> (file, lines) :: acc) files [])

let run ?(max_steps = 50_000_000) (f : file) =
  let st =
    {
      units = Hashtbl.create 8;
      cells = Hashtbl.create 256;
      out = Buffer.create 256;
      steps = 0;
      max_steps;
    }
  in
  List.iter (fun u -> Hashtbl.replace st.units u.u_name { unit_ = u; code = None }) f.f_units;
  let result =
    match main_program f with
    | None -> Error "no program unit"
    | Some u -> (
        let code = compile_unit st u in
        let fr = Array.make code.size unbound in
        code.declare fr;
        try
          code.body fr;
          Ok ()
        with
        | Stop_program | Return_unit -> Ok ()
        | Runtime_error (msg, loc) ->
            Error (Printf.sprintf "%s at %s" msg (Loc.to_string loc))
        | Exit_loop | Cycle_loop -> Error "exit/cycle escaped a loop")
  in
  { result; coverage = coverage_of st; output = Buffer.contents st.out; steps = st.steps }
