module Loc = Sv_util.Loc
module Coverage = Sv_util.Coverage
open Sv_lang_c.Ast

type value =
  | VUnit
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VArrF of float array
  | VArrI of int array
  | VRef of value ref
  | VFun of func
  | VClosure of closure
  | VObj of string * (string, value) Hashtbl.t

(* A lambda value: its compiled body and the frame it was created in. *)
and closure = { cl_env : env; cl_run : env -> value list -> Loc.t -> value }

(* One runtime scope: a slot per name the scope declares, and the scope
   around it. A slot holds [unbound] until its declaration runs; a
   declaration stores a fresh cell, so [&x] and reference parameters alias
   exactly the binding they saw. *)
and env = { vars : value ref array; up : env }

exception Runtime_error of string * Loc.t

(* Internal control flow. *)
exception Return_exc of value
exception Break_exc
exception Continue_exc

(* One source line's execution count. Statements on the same line share
   a cell; the outcome's coverage is built from the cells when the run
   ends, so a line that never ran leaves no trace. *)
type cell = { mutable hits : int }

(* A function as the program links it: its AST, and its compiled body
   once something called it. *)
type fentry = { func : func; mutable code : (value list -> Loc.t -> value) option }

type state = {
  funcs : (string, fentry) Hashtbl.t;
  records : (string, record) Hashtbl.t;
  gslots : (string, int) Hashtbl.t;  (** global name -> index in [globals] *)
  globals : value ref array;
  cells : (string * int, cell) Hashtbl.t;
  out : Buffer.t;
  mutable steps : int;
  max_steps : int;
  mutable linked : bool;
      (** every unit's tops are collected, so a function name resolves
          once at compile time; while globals initialise, it resolves at
          each use against the functions collected so far *)
}

type outcome = {
  result : (value, string) Result.t;
  coverage : Coverage.t;
  output : string;
  steps : int;
}

let err loc fmt = Printf.ksprintf (fun m -> raise (Runtime_error (m, loc))) fmt

let value_to_float = function
  | VInt n -> Some (float_of_int n)
  | VFloat f -> Some f
  | VBool b -> Some (if b then 1.0 else 0.0)
  | _ -> None

let observation o = (o.result, o.output)

let rec pp_value fmt = function
  | VUnit -> Format.pp_print_string fmt "()"
  | VInt n -> Format.pp_print_int fmt n
  | VFloat f -> Format.fprintf fmt "%g" f
  | VBool b -> Format.pp_print_bool fmt b
  | VStr s -> Format.fprintf fmt "%S" s
  | VArrF a -> Format.fprintf fmt "<f64[%d]>" (Array.length a)
  | VArrI a -> Format.fprintf fmt "<i32[%d]>" (Array.length a)
  | VRef r -> Format.fprintf fmt "&%a" pp_value !r
  | VFun f -> Format.fprintf fmt "<fun %s>" f.f_name
  | VClosure _ -> Format.pp_print_string fmt "<lambda>"
  | VObj (tag, _) -> Format.fprintf fmt "<%s>" tag

(* --- numeric helpers -------------------------------------------------- *)

let to_float loc v =
  match value_to_float v with
  | Some f -> f
  | None -> err loc "expected a number, got %s" (Format.asprintf "%a" pp_value v)

let to_int loc v =
  match v with
  | VInt n -> n
  | VFloat f -> int_of_float f
  | VBool b -> if b then 1 else 0
  | _ -> err loc "expected an integer, got %s" (Format.asprintf "%a" pp_value v)

let to_bool loc v =
  match v with
  | VBool b -> b
  | VInt n -> n <> 0
  | VFloat f -> f <> 0.0
  | _ -> err loc "expected a boolean"

let is_float_v = function VFloat _ -> true | _ -> false

let vtrue = VBool true
let vfalse = VBool false
let vbool b = if b then vtrue else vfalse

let obj tag fields =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) fields;
  VObj (tag, tbl)

(* --- arithmetic -------------------------------------------------------- *)

let arith loc op a b =
  match op with
  (* RAJA-style reducer objects absorb += : operator+= on ReduceSum *)
  | Add when (match a with VObj (_, f) -> Hashtbl.mem f "acc" | _ -> false) -> (
      match a with
      | VObj (_, fields) ->
          let cur = to_float loc (Hashtbl.find fields "acc") in
          Hashtbl.replace fields "acc" (VFloat (cur +. to_float loc b));
          a
      | _ -> assert false)
  | LAnd -> VBool (to_bool loc a && to_bool loc b)
  | LOr -> VBool (to_bool loc a || to_bool loc b)
  | Eq | Ne | Lt | Gt | Le | Ge ->
      let fa = to_float loc a and fb = to_float loc b in
      let r =
        match op with
        | Eq -> fa = fb
        | Ne -> fa <> fb
        | Lt -> fa < fb
        | Gt -> fa > fb
        | Le -> fa <= fb
        | Ge -> fa >= fb
        | _ -> assert false
      in
      VBool r
  | Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | Shl | Shr ->
      if is_float_v a || is_float_v b then begin
        let fa = to_float loc a and fb = to_float loc b in
        match op with
        | Add -> VFloat (fa +. fb)
        | Sub -> VFloat (fa -. fb)
        | Mul -> VFloat (fa *. fb)
        | Div -> VFloat (fa /. fb)
        | Mod -> VFloat (Float.rem fa fb)
        | _ -> err loc "bitwise operator on float"
      end
      else begin
        let ia = to_int loc a and ib = to_int loc b in
        match op with
        | Add -> VInt (ia + ib)
        | Sub -> VInt (ia - ib)
        | Mul -> VInt (ia * ib)
        | Div -> if ib = 0 then err loc "integer division by zero" else VInt (ia / ib)
        | Mod -> if ib = 0 then err loc "integer modulo by zero" else VInt (ia mod ib)
        | BitAnd -> VInt (ia land ib)
        | BitOr -> VInt (ia lor ib)
        | BitXor -> VInt (ia lxor ib)
        | Shl -> VInt (ia lsl ib)
        | Shr -> VInt (ia asr ib)
        | _ -> assert false
      end

(* [arith] specialised to one operator, with the int/int and
   float/float cases first; every other operand pair takes [arith]. *)
let arith_fn op : Loc.t -> value -> value -> value =
  let cmp (test : float -> float -> bool) loc a b =
    match (a, b) with
    | VInt x, VInt y -> vbool (test (float_of_int x) (float_of_int y))
    | VFloat x, VFloat y -> vbool (test x y)
    | _ -> arith loc op a b
  in
  match op with
  | Add -> (
      fun loc a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x + y)
        | VFloat x, VFloat y -> VFloat (x +. y)
        | _ -> arith loc op a b)
  | Sub -> (
      fun loc a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x - y)
        | VFloat x, VFloat y -> VFloat (x -. y)
        | _ -> arith loc op a b)
  | Mul -> (
      fun loc a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x * y)
        | VFloat x, VFloat y -> VFloat (x *. y)
        | _ -> arith loc op a b)
  | Div -> (
      fun loc a b ->
        match (a, b) with
        | VFloat x, VFloat y -> VFloat (x /. y)
        | _ -> arith loc op a b)
  | Lt -> cmp (fun x y -> x < y)
  | Gt -> cmp (fun x y -> x > y)
  | Le -> cmp (fun x y -> x <= y)
  | Ge -> cmp (fun x y -> x >= y)
  | Eq -> cmp (fun x y -> x = y)
  | Ne -> cmp (fun x y -> x <> y)
  | _ -> fun loc a b -> arith loc op a b

(* [x++]/[x--] and friends: [arith loc Add v (VInt d)] *)
let step_by loc v d =
  match v with VInt x -> VInt (x + d) | _ -> arith loc Add v (VInt d)

(* --- default values ---------------------------------------------------- *)

let rec default_value st ty loc =
  match ty with
  | TVoid -> VUnit
  | TBool -> VBool false
  | TChar | TInt | TLong | TSizeT -> VInt 0
  | TFloat | TDouble | TAuto -> VFloat 0.0
  | TPtr _ | TRef _ -> VUnit
  | TConst t -> default_value st t loc
  | TArr (elem, Some n) -> (
      match elem with
      | TInt | TLong | TSizeT | TConst TInt -> VArrI (Array.make n 0)
      | _ -> VArrF (Array.make n 0.0))
  | TArr (_, None) -> VUnit
  | TNamed (name, _) -> (
      match Hashtbl.find_opt st.records name with
      | Some r ->
          obj name (List.map (fun (fty, fname) -> (fname, default_value st fty loc)) r.r_fields)
      | None -> VUnit)

let elem_count loc ty bytes =
  (* translate a byte count from [n * sizeof(T)] into an element count *)
  let sz = match ty with TInt | TConst TInt -> 4 | TFloat -> 4 | _ -> 8 in
  let b = to_int loc bytes in
  if b mod sz <> 0 then err loc "byte count %d not divisible by %d" b sz else b / sz

(* Find the sizeof type mentioned in an allocation-size expression, to
   decide between int and float storage. *)
let rec sizeof_type_of (e : expr) =
  match e.e with
  | SizeofT ty -> Some ty
  | Binary (_, a, b) -> (
      match sizeof_type_of a with Some t -> Some t | None -> sizeof_type_of b)
  | Cast (_, a) -> sizeof_type_of a
  | _ -> None

let alloc_array loc ty_opt bytes =
  match ty_opt with
  | Some (TInt | TConst TInt) -> VArrI (Array.make (elem_count loc TInt bytes) 0)
  | Some (TFloat | TConst TFloat) -> VArrF (Array.make (elem_count loc TFloat bytes) 0.0)
  | _ -> VArrF (Array.make (elem_count loc TDouble bytes) 0.0)

let copy_array loc ~dst ~src =
  match (dst, src) with
  | VArrF d, VArrF s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
  | VArrI d, VArrI s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
  | VRef d, s -> (
      match (!d, s) with
      | VArrF d, VArrF s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
      | VArrI d, VArrI s -> Array.blit s 0 d 0 (min (Array.length s) (Array.length d))
      | _ -> err loc "incompatible copy")
  | _ -> err loc "incompatible copy"

let format_printf loc fmtstr args =
  (* tiny %d / %g / %f / %e / %s / %% support *)
  let b = Buffer.create 64 in
  let args = ref args in
  let pop () =
    match !args with
    | a :: rest ->
        args := rest;
        a
    | [] -> err loc "printf: not enough arguments"
  in
  let n = String.length fmtstr in
  let i = ref 0 in
  while !i < n do
    if fmtstr.[!i] = '%' && !i + 1 < n then begin
      (* skip width/precision chars *)
      let j = ref (!i + 1) in
      while
        !j < n
        && (match fmtstr.[!j] with
           | '0' .. '9' | '.' | '-' | '+' | 'l' -> true
           | _ -> false)
      do
        incr j
      done;
      (if !j < n then
         match fmtstr.[!j] with
         | 'd' | 'i' | 'u' -> Buffer.add_string b (string_of_int (to_int loc (pop ())))
         | 'f' | 'g' | 'e' ->
             Buffer.add_string b (Printf.sprintf "%.6f" (to_float loc (pop ())))
         | 's' -> (
             match pop () with
             | VStr s -> Buffer.add_string b s
             | v -> Buffer.add_string b (Format.asprintf "%a" pp_value v))
         | '%' -> Buffer.add_char b '%'
         | c -> Buffer.add_char b c);
      i := !j + 1
    end
    else begin
      Buffer.add_char b fmtstr.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* --- frames ------------------------------------------------------------- *)

(* Never written: a slot holding it has no binding yet. *)
let unbound : value ref = ref VUnit

let rec root = { vars = [||]; up = root }
let frame n up = { vars = Array.make n unbound; up }

let rec up_by env d = if d = 0 then env else up_by env.up (d - 1)

(* Compile-time view of one runtime scope: a slot for every name the
   scope declares anywhere, and the names whose declaration has run by
   the point being compiled. Scopes that declare nothing get no frame. *)
type scope = { slots : (string, int) Hashtbl.t; bound : (string, unit) Hashtbl.t }

type ctx = scope list  (** innermost first *)

(* Names a statement binds in the scope it runs in: a directive runs its
   statement in the enclosing scope. *)
let rec stmt_decls acc (s : stmt) =
  match s.s with
  | Decl (_, names) -> List.fold_left (fun acc (n, _) -> n :: acc) acc names
  | Directive (_, Some b) -> stmt_decls acc b
  | _ -> acc

let new_scope names =
  let slots = Hashtbl.create 8 in
  List.iter
    (fun n -> if not (Hashtbl.mem slots n) then Hashtbl.replace slots n (Hashtbl.length slots))
    names;
  { slots; bound = Hashtbl.create 8 }

let push names ctx = if names = [] then ctx else new_scope names :: ctx

(* Where a name's binding lives. [Def] is bound whenever the code runs:
   its declaration ran earlier in the same scope execution. [Dyn] may be
   unbound, and then returns [unbound]: a name declared later in an
   enclosing scope (a lambda called after that declaration sees it), or a
   global, which binds in unit order and at each kernel launch. *)
type place = Def of (env -> value ref) | Dyn of (env -> value ref) | Absent

let slot_getter d i =
  match d with
  | 0 -> fun env -> Array.unsafe_get env.vars i
  | 1 -> fun env -> Array.unsafe_get env.up.vars i
  | 2 -> fun env -> Array.unsafe_get env.up.up.vars i
  | _ -> fun env -> Array.unsafe_get (up_by env d).vars i

let place st (ctx : ctx) name =
  let rec go d = function
    | [] -> (
        match Hashtbl.find_opt st.gslots name with
        | Some g -> ([ `Global g ], None)
        | None -> ([], None))
    | sc :: rest -> (
        match Hashtbl.find_opt sc.slots name with
        | Some i when Hashtbl.mem sc.bound name -> ([], Some (d, i))
        | Some i ->
            let maybes, def = go (d + 1) rest in
            (`Local (d, i) :: maybes, def)
        | None -> go (d + 1) rest)
  in
  match go 0 ctx with
  | [], Some (d, i) -> Def (slot_getter d i)
  | [], None -> Absent
  | maybes, def ->
      let last = match def with Some (d, i) -> slot_getter d i | None -> fun _ -> unbound in
      let globals = st.globals in
      let rec find env = function
        | [] -> last env
        | `Local (d, i) :: rest ->
            let r = Array.unsafe_get (up_by env d).vars i in
            if r != unbound then r else find env rest
        | `Global g :: rest ->
            let r = globals.(g) in
            if r != unbound then r else find env rest
      in
      Dyn (fun env -> find env maybes)

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

let exhausted (st : state) loc = err loc "step budget exhausted (%d)" st.max_steps

let[@inline] tick (st : state) loc =
  let n = st.steps + 1 in
  st.steps <- n;
  if n > st.max_steps then exhausted st loc

let rec eval_list cs env =
  match cs with
  | [] -> []
  | c :: rest ->
      let v = c env in
      v :: eval_list rest env

(* How an assignment uses its target: plain store, compound operator, or
   pre/post increment by a delta. The location is the whole expression's,
   which [arith] reports. *)
type mode =
  | MSet
  | MOp of (Loc.t -> value -> value -> value) * Loc.t
  | MPre of int * Loc.t
  | MPost of int * Loc.t

let apply mode get set v =
  match mode with
  | MSet ->
      set v;
      v
  | MOp (f, ol) ->
      let s = f ol (get ()) v in
      set s;
      s
  | MPre (d, ol) ->
      let u = step_by ol (get ()) d in
      set u;
      u
  | MPost (d, ol) ->
      let o = get () in
      set (step_by ol o d);
      o

let apply_ref mode r v =
  match mode with
  | MSet ->
      r := v;
      v
  | MOp (f, ol) ->
      let s = f ol !r v in
      r := s;
      s
  | MPre (d, ol) ->
      let u = step_by ol !r d in
      r := u;
      u
  | MPost (d, ol) ->
      let o = !r in
      r := step_by ol o d;
      o

let apply_f lloc mode (arr : float array) i v =
  match mode with
  | MSet ->
      arr.(i) <- to_float lloc v;
      v
  | MOp (f, ol) ->
      let s = f ol (VFloat arr.(i)) v in
      arr.(i) <- to_float lloc s;
      s
  | MPre (d, ol) ->
      let u = step_by ol (VFloat arr.(i)) d in
      arr.(i) <- to_float lloc u;
      u
  | MPost (d, ol) ->
      let o = VFloat arr.(i) in
      arr.(i) <- to_float lloc (step_by ol o d);
      o

let apply_i lloc mode (arr : int array) i v =
  match mode with
  | MSet ->
      arr.(i) <- to_int lloc v;
      v
  | MOp (f, ol) ->
      let s = f ol (VInt arr.(i)) v in
      arr.(i) <- to_int lloc s;
      s
  | MPre (d, ol) ->
      let u = step_by ol (VInt arr.(i)) d in
      arr.(i) <- to_int lloc u;
      u
  | MPost (d, ol) ->
      let o = VInt arr.(i) in
      arr.(i) <- to_int lloc (step_by ol o d);
      o

let dim3 x = obj "dim3" [ ("x", VInt x); ("y", VInt 1); ("z", VInt 1) ]

(* --- compilation ---------------------------------------------------------- *)

(* Compiling resolves every name to a slot, every call to its target and
   every runtime-model builtin to its implementation, and turns each node
   into a closure over the run's state. Evaluation order is part of a
   run's outcome, since calls print and count steps: binary operands
   evaluate right then left, call arguments left to right. *)

let rec compile_expr (st : state) (ctx : ctx) (e : expr) : env -> value =
  let loc = e.eloc in
  match e.e with
  | IntE n ->
      let v = VInt n in
      fun _ -> v
  | FloatE f ->
      let v = VFloat f in
      fun _ -> v
  | BoolE b ->
      let v = VBool b in
      fun _ -> v
  | StrE s ->
      let v = VStr s in
      fun _ -> v
  | CharE c ->
      let v = VInt (Char.code c) in
      fun _ -> v
  | NullE -> fun _ -> VUnit
  | Var name -> (
      match place st ctx name with
      | Def get -> fun env -> !(get env)
      | Dyn find ->
          let fb = var_fallback st loc name in
          fun env ->
            let r = find env in
            if r != unbound then !r else fb ()
      | Absent ->
          let fb = var_fallback st loc name in
          fun _ -> fb ())
  | Unary (op, a) -> compile_unary st ctx loc op a
  | Binary (LAnd, a, b) ->
      let ca = compile_expr st ctx a and cb = compile_expr st ctx b in
      fun env -> if to_bool loc (ca env) then vbool (to_bool loc (cb env)) else vfalse
  | Binary (LOr, a, b) ->
      let ca = compile_expr st ctx a and cb = compile_expr st ctx b in
      fun env -> if to_bool loc (ca env) then vtrue else vbool (to_bool loc (cb env))
  | Binary (op, a, b) ->
      let ca = compile_expr st ctx a and cb = compile_expr st ctx b in
      let f = arith_fn op in
      fun env ->
        let vb = cb env in
        let va = ca env in
        f loc va vb
  | Assign (op, lhs, rhs) ->
      let cr = compile_expr st ctx rhs in
      let mode = match op with None -> MSet | Some bop -> MOp (arith_fn bop, loc) in
      let lv = compile_lvalue st ctx mode lhs in
      fun env ->
        let v = cr env in
        lv env v
  | Ternary (c, a, b) ->
      let cc = compile_expr st ctx c
      and ca = compile_expr st ctx a
      and cb = compile_expr st ctx b in
      fun env -> if to_bool loc (cc env) then ca env else cb env
  | Call (callee, _, args) -> compile_call st ctx loc callee args
  | KernelLaunch (callee, cfg, args) -> compile_launch st ctx loc callee cfg args
  | Index (a, i) -> (
      let ca = compile_expr st ctx a and ci = compile_expr st ctx i in
      fun env ->
        let va = ca env in
        let idx = to_int loc (ci env) in
        match va with
        | VArrF arr ->
            if idx < 0 || idx >= Array.length arr then
              err loc "index %d out of bounds [0,%d)" idx (Array.length arr);
            VFloat (Array.unsafe_get arr idx)
        | VArrI arr ->
            if idx < 0 || idx >= Array.length arr then
              err loc "index %d out of bounds [0,%d)" idx (Array.length arr);
            VInt (Array.unsafe_get arr idx)
        | VRef r -> (
            match !r with
            | VArrF arr -> VFloat arr.(idx)
            | VArrI arr -> VInt arr.(idx)
            | _ -> err loc "cannot index through this reference")
        | _ -> err loc "cannot index a non-array value")
  | Member (a, fieldname, _) -> (
      let ca = compile_expr st ctx a in
      fun env ->
        match ca env with
        | VObj (_, fields) -> (
            match Hashtbl.find_opt fields fieldname with
            | Some v -> v
            | None -> err loc "object has no field %s" fieldname)
        | _ -> err loc "member access on non-object")
  | Lambda (_, params, body) ->
      let run = compile_body st ctx params body in
      fun env -> VClosure { cl_env = env; cl_run = run }
  | Cast (ty, a) -> (
      let ca = compile_expr st ctx a in
      match ty with
      | TInt | TLong | TSizeT | TConst (TInt | TLong | TSizeT) ->
          fun env -> VInt (to_int loc (ca env))
      | TFloat | TDouble | TConst (TFloat | TDouble) -> fun env -> VFloat (to_float loc (ca env))
      | _ -> ca)
  | New (ty, n) -> (
      match n with
      | Some n -> (
          let cn = compile_expr st ctx n in
          match ty with
          | TInt | TConst TInt -> fun env -> VArrI (Array.make (to_int loc (cn env)) 0)
          | _ -> fun env -> VArrF (Array.make (to_int loc (cn env)) 0.0))
      | None -> fun _ -> default_value st ty loc)
  | InitList es ->
      (* bare brace initialiser: keep evaluated elements in an object *)
      let cs = List.map (compile_expr st ctx) es in
      fun env ->
        let vs = eval_list cs env in
        obj "init-list" (List.mapi (fun i v -> (string_of_int i, v)) vs)
  | SizeofT ty -> (
      match ty with
      | TInt | TFloat | TConst (TInt | TFloat) -> fun _ -> VInt 4
      | TChar | TBool -> fun _ -> VInt 1
      | _ -> fun _ -> VInt 8)

(* a name no scope binds: a function, then a builtin constant *)
and var_fallback st loc name : unit -> value =
  if st.linked then
    match Hashtbl.find_opt st.funcs name with
    | Some fe ->
        let v = VFun fe.func in
        fun () -> v
    | None -> builtin_const loc name
  else
    let const = builtin_const loc name in
    fun () ->
      match Hashtbl.find_opt st.funcs name with
      | Some fe -> VFun fe.func
      | None -> const ()

and builtin_const loc name : unit -> value =
  (* names that resolve without declaration *)
  match name with
  | "std::execution::par_unseq" | "std::execution::par" | "std::execution::seq" ->
      let v = VStr "execution-policy" in
      fun () -> v
  | "RAND_MAX" -> fun () -> VInt 0x7FFFFFFF
  | "M_PI" -> fun () -> VFloat Float.pi
  | _ -> fun () -> err loc "unknown name %s" name

and compile_unary st ctx loc op a =
  match op with
  | Neg -> (
      let ca = compile_expr st ctx a in
      fun env ->
        match ca env with
        | VInt n -> VInt (-n)
        | VFloat f -> VFloat (-.f)
        | v -> err loc "cannot negate %s" (Format.asprintf "%a" pp_value v))
  | Not ->
      let ca = compile_expr st ctx a in
      fun env -> vbool (not (to_bool loc (ca env)))
  | BitNot ->
      let ca = compile_expr st ctx a in
      fun env -> VInt (lnot (to_int loc (ca env)))
  | PreInc | PreDec | PostInc | PostDec ->
      let d = match op with PreInc | PostInc -> 1 | _ -> -1 in
      let mode = match op with PostInc | PostDec -> MPost (d, loc) | _ -> MPre (d, loc) in
      let lv = compile_lvalue st ctx mode a in
      fun env -> lv env VUnit
  | Deref -> (
      let ca = compile_expr st ctx a in
      fun env ->
        match ca env with
        | VRef r -> !r
        | VArrF arr -> VFloat arr.(0)
        | VArrI arr -> VInt arr.(0)
        | v -> err loc "cannot dereference %s" (Format.asprintf "%a" pp_value v))
  | AddrOf -> (
      match a.e with
      | Var name -> (
          match place st ctx name with
          | Def get -> fun env -> VRef (get env)
          | Dyn find ->
              fun env ->
                let r = find env in
                if r != unbound then VRef r else err loc "address of unknown variable %s" name
          | Absent -> fun _ -> err loc "address of unknown variable %s" name)
      | _ ->
          let ca = compile_expr st ctx a in
          fun env -> VRef (ref (ca env)))

(* An assignment target, compiled for one [mode]: the closure takes the
   already-evaluated right-hand side (ignored by increments) and returns
   the expression's value. The target's own subexpressions evaluate after
   the right-hand side. *)
and compile_lvalue st ctx mode (e : expr) : env -> value -> value =
  let loc = e.eloc in
  match e.e with
  | Var name -> (
      match place st ctx name with
      | Def get -> fun env v -> apply_ref mode (get env) v
      | Dyn find ->
          fun env v ->
            let r = find env in
            if r != unbound then apply_ref mode r v
            else err loc "assignment to unknown variable %s" name
      | Absent -> fun _ _ -> err loc "assignment to unknown variable %s" name)
  | Index (a, i) -> (
      let ca = compile_expr st ctx a and ci = compile_expr st ctx i in
      fun env v ->
        let va = ca env in
        let idx = to_int loc (ci env) in
        match va with
        | VArrF arr ->
            if idx < 0 || idx >= Array.length arr then
              err loc "index %d out of bounds [0,%d)" idx (Array.length arr);
            apply_f loc mode arr idx v
        | VArrI arr ->
            if idx < 0 || idx >= Array.length arr then
              err loc "index %d out of bounds [0,%d)" idx (Array.length arr);
            apply_i loc mode arr idx v
        | VRef r -> (
            match !r with
            | VArrF arr -> apply_f loc mode arr idx v
            | VArrI arr -> apply_i loc mode arr idx v
            | _ -> err loc "cannot index through this reference")
        | _ -> err loc "cannot index non-array")
  | Member (a, fieldname, _) -> (
      let ca = compile_expr st ctx a in
      fun env v ->
        match ca env with
        | VObj (_, fields) ->
            apply mode
              (fun () ->
                match Hashtbl.find_opt fields fieldname with
                | Some v -> v
                | None -> err loc "object has no field %s" fieldname)
              (fun v -> Hashtbl.replace fields fieldname v)
              v
        | _ -> err loc "member assignment on non-object")
  | Unary (Deref, a) -> (
      let ca = compile_expr st ctx a in
      fun env v ->
        match ca env with
        | VRef r -> apply_ref mode r v
        | VArrF arr ->
            apply mode (fun () -> VFloat arr.(0)) (fun v -> arr.(0) <- to_float loc v) v
        | _ -> err loc "cannot assign through this pointer")
  | Call (callee, _, [ idx ]) -> (
      (* Kokkos view element access: a(i) = v *)
      let cc = compile_expr st ctx callee and ci = compile_expr st ctx idx in
      fun env v ->
        let va = cc env in
        let i = to_int loc (ci env) in
        match va with
        | VArrF arr -> apply_f loc mode arr i v
        | VArrI arr -> apply_i loc mode arr i v
        | _ -> err loc "call-form assignment on non-view value")
  | _ -> fun _ _ -> err loc "expression is not assignable"

(* --- calls ------------------------------------------------------------- *)

and call_value st loc callee args =
  match callee with
  | VFun f -> call_func st f args loc
  | VClosure c -> c.cl_run c.cl_env args loc
  | VArrF arr -> (
      (* Kokkos view read access a(i) *)
      match args with
      | [ VInt i ] -> VFloat arr.(i)
      | _ -> err loc "bad view access")
  | VArrI arr -> (
      match args with
      | [ VInt i ] -> VInt arr.(i)
      | _ -> err loc "bad view access")
  | v -> err loc "cannot call %s" (Format.asprintf "%a" pp_value v)

and call_func st (f : func) args loc =
  let fe =
    match Hashtbl.find_opt st.funcs f.f_name with
    | Some fe when fe.func == f -> fe
    | _ -> { func = f; code = None }
  in
  call_entry st fe args loc

and call_entry st fe args loc =
  match fe.code with
  | Some code -> code args loc
  | None ->
      let code = compile_func st fe.func in
      fe.code <- Some code;
      code args loc

and compile_func st (f : func) =
  let cell = cell_of st f.f_loc in
  let hit () = match cell with Some c -> c.hits <- c.hits + 1 | None -> () in
  match f.f_body with
  | None ->
      fun _ loc ->
        hit ();
        err loc "call to undefined function %s" f.f_name
  | Some body ->
      let run = compile_body st [] f.f_params body in
      fun args loc ->
        hit ();
        run root args loc

(* A function or lambda body: one scope holds the parameters and the
   body's own declarations; the caller supplies the enclosing frame. *)
and compile_body st ctx params body : env -> value list -> Loc.t -> value =
  let names = List.map (fun p -> p.p_name) params @ List.fold_left stmt_decls [] body in
  let sc = new_scope names in
  List.iter (fun p -> Hashtbl.replace sc.bound p.p_name ()) params;
  let n = Hashtbl.length sc.slots in
  let ctx = if n = 0 then ctx else sc :: ctx in
  let ps =
    List.map
      (fun p ->
        let by_ref = match p.p_ty with TRef _ | TConst (TRef _) -> true | _ -> false in
        (Hashtbl.find sc.slots p.p_name, by_ref, p.p_ty))
      params
  in
  let cbody = compile_stmts st ctx body in
  let bind (env : env) args loc =
    let vars = env.vars in
    let rec go ps args =
      match (ps, args) with
      | [], [] -> ()
      | (i, by_ref, _) :: ps, a :: rest ->
          (match a with
          | VRef r when by_ref -> vars.(i) <- r
          | VRef r -> vars.(i) <- ref !r
          | v -> vars.(i) <- ref v);
          go ps rest
      | (i, _, ty) :: ps, [] ->
          (* tolerate missing trailing args (e.g. main's argc/argv) *)
          vars.(i) <- ref (default_value st ty loc);
          go ps []
      | [], _ :: _ -> err loc "too many arguments"
    in
    go ps args
  in
  fun outer args loc ->
    let env = if n = 0 then outer else frame n outer in
    bind env args loc;
    match cbody env with () -> VUnit | exception Return_exc v -> v

and compile_call st ctx loc callee args =
  (* Member-method dispatch first, then named builtins, then user code. *)
  match callee.e with
  | Member (recv, meth, _) ->
      let cr = compile_expr st ctx recv in
      let m = compile_method st ctx loc meth args in
      fun env -> m (cr env) env
  | Var name -> (
      let cargs = List.map (compile_expr st ctx) args in
      let by_name () =
        let direct fe env = call_entry st fe (eval_list cargs env) loc in
        if st.linked then
          match Hashtbl.find_opt st.funcs name with
          | Some fe when fe.func.f_body <> None -> direct fe
          | _ -> compile_builtin st loc name args cargs
        else
          let builtin = compile_builtin st loc name args cargs in
          fun env ->
            match Hashtbl.find_opt st.funcs name with
            | Some fe when fe.func.f_body <> None -> direct fe env
            | _ -> builtin env
      in
      match place st ctx name with
      | Def get ->
          fun env ->
            let r = get env in
            let vs = eval_list cargs env in
            call_value st loc !r vs
      | Dyn find ->
          let fallback = by_name () in
          fun env ->
            let r = find env in
            if r != unbound then
              let vs = eval_list cargs env in
              call_value st loc !r vs
            else fallback env
      | Absent -> by_name ())
  | _ ->
      let cc = compile_expr st ctx callee in
      let cargs = List.map (compile_expr st ctx) args in
      fun env ->
        let vc = cc env in
        call_value st loc vc (eval_list cargs env)

and compile_method st ctx loc meth args : value -> env -> value =
  let cargs = List.map (compile_expr st ctx) args in
  let ev env = eval_list cargs env in
  let call c args = c.cl_run c.cl_env args loc in
  let parallel_for _ env = sycl_parallel_for loc (ev env) in
  (* the receiver tags this method name applies to, in dispatch order *)
  let cases : (string * ((string, value) Hashtbl.t -> env -> value)) list =
    match meth with
    (* SYCL queue *)
    | "submit" ->
        [
          ( "sycl::queue",
            fun _ env ->
              match ev env with
              | [ VClosure c ] -> call c [ obj "sycl::handler" [] ]
              | _ -> err loc "queue.submit expects a lambda" );
        ]
    | "wait" | "wait_and_throw" -> [ ("sycl::queue", fun _ _ -> VUnit) ]
    | "memcpy" ->
        [
          ( "sycl::queue",
            fun _ env ->
              match ev env with
              | [ dst; src; _bytes ] ->
                  copy_array loc ~dst ~src;
                  VUnit
              | _ -> err loc "queue.memcpy expects three arguments" );
        ]
    | "parallel_for" -> [ ("sycl::queue", parallel_for); ("sycl::handler", parallel_for) ]
    | "copy" ->
        [
          ( "sycl::queue",
            fun _ env ->
              match ev env with
              | [ src; dst; _n ] ->
                  copy_array loc ~dst ~src;
                  VUnit
              | _ -> err loc "queue.copy expects three arguments" );
          (* SYCL handler *)
          ( "sycl::handler",
            fun _ env ->
              match ev env with
              | [ src; dst ] ->
                  copy_array loc ~dst ~src;
                  VUnit
              | _ -> err loc "handler.copy expects two arguments" );
        ]
    (* SYCL buffer / accessor *)
    | "get_access" | "get_host_access" ->
        [ ("sycl::buffer", fun fields _ -> Hashtbl.find fields "data") ]
    | "size" ->
        [
          ( "sycl::buffer",
            fun fields _ ->
              match Hashtbl.find fields "data" with
              | VArrF a -> VInt (Array.length a)
              | VArrI a -> VInt (Array.length a)
              | _ -> VInt 0 );
        ]
    (* RAJA reducers *)
    | "get" -> [ ("RAJA::ReduceSum", fun fields _ -> Hashtbl.find fields "acc") ]
    (* TBB blocked_range *)
    | "begin" -> [ ("tbb::blocked_range", fun fields _ -> Hashtbl.find fields "b") ]
    | "end" -> [ ("tbb::blocked_range", fun fields _ -> Hashtbl.find fields "e") ]
    | _ -> []
  in
  let is_size = meth = "size" in
  fun vrecv env ->
    match vrecv with
    | VObj (tag, fields) -> (
        (* dim3-like structs and Kokkos views fall through to errors *)
        match List.assoc_opt tag cases with
        | Some f -> f fields env
        | None -> err loc "unknown method %s on %s" meth tag)
    | VArrF a when is_size -> VInt (Array.length a)
    | _ -> err loc "method call %s on non-object" meth

and sycl_parallel_for loc args =
  match args with
  | [ VObj ("sycl::range", fields); VClosure c ] | [ VObj ("sycl::nd_range", fields); VClosure c ]
    ->
      let n = to_int loc (Hashtbl.find fields "n") in
      for i = 0 to n - 1 do
        ignore (c.cl_run c.cl_env [ VInt i ] loc)
      done;
      VUnit
  | [ VInt n; VClosure c ] ->
      for i = 0 to n - 1 do
        ignore (c.cl_run c.cl_env [ VInt i ] loc)
      done;
      VUnit
  | _ -> err loc "parallel_for expects (range, lambda)"

and compile_launch st ctx loc callee cfg args =
  (* CUDA/HIP triple-chevron launch: iterate the grid sequentially. *)
  let cgrid = match cfg with e :: _ -> compile_expr st ctx e | [] -> fun _ -> failwith "nth" in
  let cblock =
    match cfg with
    | _ :: e :: _ -> compile_expr st ctx e
    | [ _ ] -> fun _ -> failwith "hd"
    | [] -> fun _ -> failwith "tl"
  in
  let kernel =
    match callee.e with
    | Var name -> (
        let find () =
          match Hashtbl.find_opt st.funcs name with
          | Some fe -> fe
          | None -> err loc "unknown kernel %s" name
        in
        match Hashtbl.find_opt st.funcs name with
        | Some fe when st.linked -> fun () -> fe
        | _ -> find)
    | _ -> fun () -> err loc "kernel launch callee must be a function name"
  in
  let cargs = List.map (compile_expr st ctx) args in
  let g name = Hashtbl.find st.gslots name in
  let grid_dim = g "gridDim" and block_dim = g "blockDim" in
  let block_idx = g "blockIdx" and thread_idx = g "threadIdx" in
  let globals = st.globals in
  fun env ->
    let grid = to_int loc (cgrid env) in
    let block = to_int loc (cblock env) in
    let fe = kernel () in
    let vargs = eval_list cargs env in
    globals.(grid_dim) <- ref (dim3 grid);
    globals.(block_dim) <- ref (dim3 block);
    for b = 0 to grid - 1 do
      globals.(block_idx) <- ref (dim3 b);
      for t = 0 to block - 1 do
        globals.(thread_idx) <- ref (dim3 t);
        ignore (call_entry st fe vargs loc)
      done
    done;
    VUnit

(* --- named builtins ------------------------------------------------------ *)

and compile_builtin (st : state) loc name args cargs : env -> value =
  let ev env = eval_list cargs env in
  let call c args = c.cl_run c.cl_env args loc in
  let f1 fn =
    match cargs with
    | [ c ] -> fun env -> VFloat (fn (to_float loc (c env)))
    | _ ->
        fun env ->
          ignore (ev env);
          err loc "%s expects one argument" name
  in
  let f2 fn env =
    match ev env with
    | [ a; b ] ->
        let fb = to_float loc b in
        VFloat (fn (to_float loc a) fb)
    | _ -> err loc "%s expects two arguments" name
  in
  match name with
  (* math *)
  | "sqrt" | "std::sqrt" | "sycl::sqrt" -> f1 sqrt
  | "fabs" | "std::fabs" | "std::abs" | "sycl::fabs" -> f1 Float.abs
  | "abs" -> (
      fun env ->
        match ev env with
        | [ VInt n ] -> VInt (Stdlib.abs n)
        | [ v ] -> VFloat (Float.abs (to_float loc v))
        | _ -> err loc "abs expects one argument")
  | "exp" | "std::exp" -> f1 exp
  | "log" | "std::log" -> f1 log
  | "cos" | "std::cos" -> f1 cos
  | "sin" | "std::sin" -> f1 sin
  | "floor" | "std::floor" -> f1 Float.floor
  | "ceil" | "std::ceil" -> f1 Float.ceil
  | "pow" | "std::pow" -> f2 ( ** )
  | "fmin" | "std::fmin" -> f2 Float.min
  | "fmax" | "std::fmax" -> f2 Float.max
  | "fmod" -> f2 Float.rem
  | "min" | "std::min" -> (
      fun env ->
        match ev env with
        | [ VInt a; VInt b ] -> VInt (Stdlib.min a b)
        | [ a; b ] ->
            let fb = to_float loc b in
            VFloat (Float.min (to_float loc a) fb)
        | _ -> err loc "min expects two arguments")
  | "max" | "std::max" -> (
      fun env ->
        match ev env with
        | [ VInt a; VInt b ] -> VInt (Stdlib.max a b)
        | [ a; b ] ->
            let fb = to_float loc b in
            VFloat (Float.max (to_float loc a) fb)
        | _ -> err loc "max expects two arguments")
  (* io *)
  | "printf" | "fprintf" -> (
      fun env ->
        match ev env with
        | VStr fmtstr :: rest ->
            Buffer.add_string st.out (format_printf loc fmtstr rest);
            VInt 0
        | _ :: VStr fmtstr :: rest ->
            Buffer.add_string st.out (format_printf loc fmtstr rest);
            VInt 0
        | _ -> err loc "printf expects a format string")
  | "exit" -> fun env -> raise_notrace (Return_exc (match ev env with [ v ] -> v | _ -> VInt 0))
  (* allocation *)
  | "malloc" -> (
      let ty = match args with [ size_expr ] -> sizeof_type_of size_expr | _ -> None in
      fun env ->
        match (args, ev env) with
        | [ _ ], [ bytes ] -> alloc_array loc ty bytes
        | _ -> err loc "malloc expects one argument")
  | "free" -> fun _ -> VUnit
  (* CUDA / HIP runtime *)
  | "cudaMalloc" | "hipMalloc" -> (
      let ty = match args with [ _; size_expr ] -> sizeof_type_of size_expr | _ -> None in
      fun env ->
        match (args, ev env) with
        | [ _; _ ], [ VRef r; bytes ] ->
            r := alloc_array loc ty bytes;
            VInt 0
        | _ -> err loc "%s expects (&ptr, bytes)" name)
  | "cudaMemcpy" | "hipMemcpy" -> (
      fun env ->
        match ev env with
        | dst :: src :: _ ->
            copy_array loc ~dst ~src;
            VInt 0
        | _ -> err loc "%s expects (dst, src, bytes, kind)" name)
  | "cudaFree" | "hipFree" | "cudaDeviceSynchronize" | "hipDeviceSynchronize"
  | "cudaGetLastError" | "hipGetLastError" ->
      fun _ -> VInt 0
  | "cudaMemset" | "hipMemset" -> (
      fun env ->
        match ev env with
        | [ VArrF arr; v; _bytes ] ->
            Array.fill arr 0 (Array.length arr) (to_float loc v);
            VInt 0
        | [ VArrI arr; v; _bytes ] ->
            Array.fill arr 0 (Array.length arr) (to_int loc v);
            VInt 0
        | _ -> err loc "%s expects (ptr, value, bytes)" name)
  | "atomicAdd" | "atomicAdd_system" -> (
      fun env ->
        match ev env with
        | [ VRef r; v ] ->
            let cur = to_float loc !r in
            r := VFloat (cur +. to_float loc v);
            VFloat cur
        | _ -> err loc "atomicAdd expects (&x, v)")
  (* OpenMP runtime *)
  | "omp_get_num_threads" | "omp_get_max_threads" -> fun _ -> VInt 1
  | "omp_get_thread_num" -> fun _ -> VInt 0
  | "omp_get_wtime" ->
      fun _ ->
        st.steps <- st.steps + 1;
        VFloat (float_of_int st.steps *. 1e-9)
  (* SYCL free functions *)
  | "sycl::malloc_shared" | "sycl::malloc_device" | "sycl::malloc_host" -> (
      let ty = match args with [ size_expr; _ ] -> sizeof_type_of size_expr | _ -> None in
      fun env ->
        match (args, ev env) with
        | [ _; _ ], [ bytes; _ ] -> alloc_array loc ty bytes
        | _ -> err loc "%s expects (bytes, queue)" name)
  | "sycl::free" -> fun _ -> VUnit
  (* Kokkos *)
  | "Kokkos::initialize" | "Kokkos::finalize" | "Kokkos::fence" -> fun _ -> VUnit
  | "Kokkos::parallel_for" -> (
      fun env ->
        match ev env with
        | [ VStr _; VInt n; VClosure c ] | [ VInt n; VClosure c ] ->
            for i = 0 to n - 1 do
              ignore (call c [ VInt i ])
            done;
            VUnit
        | _ -> err loc "Kokkos::parallel_for expects (label, n, lambda)")
  | "Kokkos::parallel_reduce" -> (
      fun env ->
        match ev env with
        | [ VStr _; VInt n; VClosure c; acc ] | [ VInt n; VClosure c; acc ] ->
            let accr = match acc with VRef r -> r | _ -> ref acc in
            accr := VFloat 0.0;
            for i = 0 to n - 1 do
              ignore (call c [ VInt i; VRef accr ])
            done;
            VUnit
        | _ -> err loc "Kokkos::parallel_reduce expects (label, n, lambda, result)")
  | "Kokkos::deep_copy" -> (
      fun env ->
        match ev env with
        | [ dst; src ] ->
            copy_array loc ~dst ~src;
            VUnit
        | _ -> err loc "Kokkos::deep_copy expects (dst, src)")
  (* RAJA *)
  | "RAJA::forall" -> (
      fun env ->
        match ev env with
        | [ VObj ("RAJA::RangeSegment", fields); VClosure c ] ->
            let b = to_int loc (Hashtbl.find fields "b") in
            let e = to_int loc (Hashtbl.find fields "e") in
            for i = b to e - 1 do
              ignore (call c [ VInt i ])
            done;
            VUnit
        | _ -> err loc "RAJA::forall expects (range, lambda)")
  (* TBB *)
  | "tbb::parallel_for" -> (
      fun env ->
        match ev env with
        | [ range; VClosure c ] ->
            ignore (call c [ range ]);
            VUnit
        | _ -> err loc "tbb::parallel_for expects (range, lambda)")
  | "tbb::parallel_reduce" -> (
      fun env ->
        match ev env with
        | [ range; init; VClosure body; VClosure join ] ->
            let partial = call body [ range; init ] in
            call join [ partial; init ]
        | _ -> err loc "tbb::parallel_reduce expects (range, init, body, join)")
  (* StdPar *)
  | "std::for_each" -> (
      fun env ->
        match ev env with
        | [ _policy; VInt first; VInt last; VClosure c ] ->
            for i = first to last - 1 do
              ignore (call c [ VInt i ])
            done;
            VUnit
        | _ -> err loc "std::for_each expects (policy, first, last, lambda)")
  | "std::transform_reduce" -> (
      fun env ->
        match ev env with
        | [ _policy; VInt first; VInt last; init; VClosure reduce; VClosure transform ] ->
            let acc = ref init in
            for i = first to last - 1 do
              let t = call transform [ VInt i ] in
              acc := call reduce [ !acc; t ]
            done;
            !acc
        | _ ->
            err loc
              "std::transform_reduce expects (policy, first, last, init, reduce, transform)")
  | "counting_iterator" | "thrust::counting_iterator" -> (
      fun env ->
        match ev env with [ v ] -> v | _ -> err loc "counting_iterator expects one argument")
  (* misc *)
  | "assert" -> (
      fun env ->
        match ev env with
        | [ v ] -> if to_bool loc v then VUnit else err loc "assertion failed"
        | _ -> err loc "assert expects one argument")
  | "__syncthreads" | "__threadfence" -> fun _ -> VUnit
  | _ -> (
      (* constructor syntax in expression position: sycl::range<1>(n),
         tbb::blocked_range<int>(0, n), dim3(g), struct literals... *)
      let c = compile_construct st loc (TNamed (name, [])) cargs in
      fun env ->
        match c env with
        | v -> v
        | exception Runtime_error _ -> err loc "unknown function %s" name)

(* Constructor-style initialisers for library types. *)
and compile_construct st loc ty cargs : env -> value =
  let ev env = eval_list cargs env in
  match ty with
  | TNamed (name, targs) -> (
      match name with
      | "sycl::queue" -> fun _ -> obj "sycl::queue" []
      | "sycl::range" | "sycl::nd_range" -> (
          fun env ->
            match ev env with
            | [ n ] -> obj "sycl::range" [ ("n", n) ]
            | [ n; _ ] -> obj "sycl::range" [ ("n", n) ]
            | _ -> err loc "sycl::range expects a size")
      | "sycl::buffer" -> (
          fun env ->
            match ev env with
            | [ VInt n ] ->
                let data =
                  match targs with
                  | TyArg TInt :: _ -> VArrI (Array.make n 0)
                  | _ -> VArrF (Array.make n 0.0)
                in
                obj "sycl::buffer" [ ("data", data) ]
            | [ (VArrF _ | VArrI _) as data; _ ] | [ (VArrF _ | VArrI _) as data ] ->
                obj "sycl::buffer" [ ("data", data) ]
            | _ -> err loc "sycl::buffer expects a size or host data")
      | "Kokkos::View" -> (
          fun env ->
            match ev env with
            | [ VStr _; VInt n ] | [ VInt n ] -> (
                match targs with
                | TyArg (TPtr TInt) :: _ -> VArrI (Array.make n 0)
                | _ -> VArrF (Array.make n 0.0))
            | _ -> err loc "Kokkos::View expects (label, n)")
      | "RAJA::RangeSegment" -> (
          fun env ->
            match ev env with
            | [ b; e ] -> obj "RAJA::RangeSegment" [ ("b", b); ("e", e) ]
            | _ -> err loc "RAJA::RangeSegment expects (begin, end)")
      | "RAJA::ReduceSum" -> (
          fun env ->
            match ev env with
            | [ init ] -> obj "RAJA::ReduceSum" [ ("acc", init) ]
            | [] -> obj "RAJA::ReduceSum" [ ("acc", VFloat 0.0) ]
            | _ -> err loc "RAJA::ReduceSum expects an initial value")
      | "tbb::blocked_range" -> (
          fun env ->
            match ev env with
            | [ b; e ] -> obj "tbb::blocked_range" [ ("b", b); ("e", e) ]
            | _ -> err loc "tbb::blocked_range expects (begin, end)")
      | "dim3" -> (
          fun env ->
            match ev env with
            | [ x ] -> obj "dim3" [ ("x", x); ("y", VInt 1); ("z", VInt 1) ]
            | _ -> err loc "dim3 expects one argument")
      | _ -> (
          fun env ->
            match Hashtbl.find_opt st.records name with
            | Some r ->
                let vs = ev env in
                obj name
                  (List.mapi
                     (fun i (fty, fname) ->
                       ( fname,
                         match List.nth_opt vs i with
                         | Some v -> v
                         | None -> default_value st fty loc ))
                     r.r_fields)
            | None -> err loc "cannot construct unknown type %s" name))
  | _ -> fun _ -> err loc "constructor initialiser on non-class type"

(* --- statements ----------------------------------------------------------- *)

(* The statements of one scope, compiled in order so each declaration
   marks its name bound for the statements after it. *)
and compile_stmts st ctx stmts : env -> unit =
  let rec go = function [] -> [] | s :: rest -> let c = compile_stmt st ctx s in c :: go rest in
  match Array.of_list (go stmts) with
  | [||] -> fun _ -> ()
  | [| a |] -> a
  | [| a; b |] ->
      fun env ->
        a env;
        b env
  | cs ->
      fun env ->
        for i = 0 to Array.length cs - 1 do
          (Array.unsafe_get cs i) env
        done

(* A nested statement list: its own scope, one fresh frame per run when
   it declares anything. *)
and compile_block st ctx stmts : env -> unit =
  match List.fold_left stmt_decls [] stmts with
  | [] -> compile_stmts st ctx stmts
  | names ->
      let ctx = push names ctx in
      let n = Hashtbl.length (List.hd ctx).slots in
      let body = compile_stmts st ctx stmts in
      fun env -> body (frame n env)

(* Each statement counts one step, checks the budget, then counts its
   line, before it runs. *)
and compile_stmt st ctx (s : stmt) : env -> unit =
  let loc = s.sloc in
  let run = compile_stmt_node st ctx s in
  match cell_of st loc with
  | None ->
      fun env ->
        tick st loc;
        run env
  | Some c ->
      fun env ->
        tick st loc;
        c.hits <- c.hits + 1;
        run env

and compile_stmt_node st ctx (s : stmt) : env -> unit =
  match s.s with
  | Decl (ty, names) -> (
      let sc = match ctx with sc :: _ -> sc | [] -> assert false in
      let binders =
        List.map
          (fun (name, init) ->
            let cv =
              match init with
              | Some ({ e = InitList ctor_args; _ } as e) ->
                  compile_construct st e.eloc ty
                    (List.map (compile_expr st ctx) ctor_args)
              | Some e -> compile_expr st ctx e
              | None -> (
                  match ty with
                  | TNamed _ | TConst (TNamed _) -> (
                      (* a default-constructed library/record object *)
                      let c = compile_construct st s.sloc ty [] in
                      fun env ->
                        try c env with Runtime_error _ -> default_value st ty s.sloc)
                  | _ -> fun _ -> default_value st ty s.sloc)
            in
            Hashtbl.replace sc.bound name ();
            (Hashtbl.find sc.slots name, cv))
          names
      in
      match binders with
      | [ (i, cv) ] ->
          fun env ->
            let v = cv env in
            env.vars.(i) <- ref v
      | _ ->
          fun env ->
            List.iter
              (fun (i, cv) ->
                let v = cv env in
                env.vars.(i) <- ref v)
              binders)
  | ExprS e ->
      let c = compile_expr st ctx e in
      fun env -> ignore (c env)
  | If (c, t, f) ->
      let cc = compile_expr st ctx c in
      let ct = compile_block st ctx t and cf = compile_block st ctx f in
      let cloc = c.eloc in
      fun env -> if to_bool cloc (cc env) then ct env else cf env
  | For (init, cond, step, body) ->
      let names = match init with Some i -> stmt_decls [] i | None -> [] in
      let ctx = push names ctx in
      let n = if names = [] then 0 else Hashtbl.length (List.hd ctx).slots in
      let ci = match init with Some i -> compile_stmt st ctx i | None -> fun _ -> () in
      let cc =
        match cond with
        | Some c ->
            let k = compile_expr st ctx c and cloc = c.eloc in
            fun env -> to_bool cloc (k env)
        | None -> fun _ -> true
      in
      let cs =
        match step with
        | Some e ->
            let k = compile_expr st ctx e in
            fun env -> ignore (k env)
        | None -> fun _ -> ()
      in
      let cb = compile_block st ctx body in
      fun env ->
        let env = if n = 0 then env else frame n env in
        ci env;
        let rec loop () =
          if cc env then
            match cb env with
            | () ->
                cs env;
                loop ()
            | exception Break_exc -> ()
            | exception Continue_exc ->
                cs env;
                loop ()
        in
        loop ()
  | While (c, body) ->
      let cc = compile_expr st ctx c and cloc = c.eloc in
      let cb = compile_block st ctx body in
      fun env ->
        let rec loop () =
          if to_bool cloc (cc env) then
            match cb env with
            | () -> loop ()
            | exception Break_exc -> ()
            | exception Continue_exc -> loop ()
        in
        loop ()
  | DoWhile (body, c) ->
      let cb = compile_block st ctx body in
      let cc = compile_expr st ctx c and cloc = c.eloc in
      fun env ->
        let rec loop () =
          match cb env with
          | () -> if to_bool cloc (cc env) then loop ()
          | exception Break_exc -> ()
          | exception Continue_exc -> if to_bool cloc (cc env) then loop ()
        in
        loop ()
  | Return e -> (
      match e with
      | Some e ->
          let c = compile_expr st ctx e in
          fun env -> raise_notrace (Return_exc (c env))
      | None -> fun _ -> raise_notrace (Return_exc VUnit))
  | Break -> fun _ -> raise_notrace Break_exc
  | Continue -> fun _ -> raise_notrace Continue_exc
  | Block body -> compile_block st ctx body
  | Directive (_, body) -> (
      (* directives execute their governed statement serially *)
      match body with Some b -> compile_stmt st ctx b | None -> fun _ -> ())
  | DeleteS (e, _) ->
      let c = compile_expr st ctx e in
      fun env -> ignore (c env)

(* --- entry ------------------------------------------------------------- *)

let coverage_of st =
  let files = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (file, line) c ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt files file) in
      Hashtbl.replace files file ((line, c.hits) :: prev))
    st.cells;
  Coverage.restore (Hashtbl.fold (fun file lines acc -> (file, lines) :: acc) files [])

let run ?(max_steps = 50_000_000) ?(entry = "main") ?(args = []) units =
  (* every global, and the launch-bound CUDA names, gets a slot up front;
     a slot binds when its declaration runs, in unit order *)
  let gslots = Hashtbl.create 16 in
  let slot name =
    if not (Hashtbl.mem gslots name) then Hashtbl.replace gslots name (Hashtbl.length gslots)
  in
  List.iter slot [ "gridDim"; "blockDim"; "blockIdx"; "threadIdx" ];
  List.iter
    (fun u ->
      List.iter (function GlobalVar (_, _, name, _, _) -> slot name | _ -> ()) u.t_tops)
    units;
  let st =
    {
      funcs = Hashtbl.create 64;
      records = Hashtbl.create 16;
      gslots;
      globals = Array.make (Hashtbl.length gslots) unbound;
      cells = Hashtbl.create 256;
      out = Buffer.create 256;
      steps = 0;
      max_steps;
      linked = false;
    }
  in
  (* Collect functions, records and globals across all units; later
     definitions win (prototype then definition). *)
  List.iter
    (fun u ->
      List.iter
        (fun top ->
          match top with
          | Func f ->
              if
                f.f_body <> None
                ||
                match Hashtbl.find_opt st.funcs f.f_name with
                | Some prev -> prev.func.f_body = None
                | None -> true
              then Hashtbl.replace st.funcs f.f_name { func = f; code = None }
          | Record r -> Hashtbl.replace st.records r.r_name r
          | GlobalVar (_, ty, name, init, loc) ->
              let v =
                match init with
                | Some e -> (
                    let c = compile_expr st [] e in
                    try c root with Runtime_error _ -> default_value st ty loc)
                | None -> default_value st ty loc
              in
              st.globals.(Hashtbl.find gslots name) <- ref v
          | Using _ | TopDirective _ -> ())
        u.t_tops)
    units;
  st.linked <- true;
  let result =
    match Hashtbl.find_opt st.funcs entry with
    | None -> Error (Printf.sprintf "entry function %s not found" entry)
    | Some fe -> (
        try Ok (call_entry st fe args fe.func.f_loc) with
        | Runtime_error (msg, loc) ->
            Error (Printf.sprintf "%s at %s" msg (Loc.to_string loc))
        | Return_exc v -> Ok v
        | Break_exc | Continue_exc -> Error "break/continue escaped a loop")
  in
  { result; coverage = coverage_of st; output = Buffer.contents st.out; steps = st.steps }
