let names = [ "babelstream"; "babelstream-f"; "tealeaf"; "cloverleaf"; "minibude" ]

(* Each corpus is emitted once per process: a resident daemon resolves
   the app on every request, and the same codebase values let per-value
   memos downstream (the index key) hit. *)
let babelstream = lazy (Babelstream.all ())
let babelstream_f = lazy (Babelstream_f.all ())
let tealeaf = lazy (Tealeaf.all ())
let cloverleaf = lazy (Cloverleaf.all ())
let minibude = lazy (Minibude.all ())

let corpus name =
  match String.lowercase_ascii name with
  | "babelstream" -> Some (Lazy.force babelstream)
  | "babelstream-f" | "babelstream-fortran" -> Some (Lazy.force babelstream_f)
  | "tealeaf" -> Some (Lazy.force tealeaf)
  | "cloverleaf" -> Some (Lazy.force cloverleaf)
  | "minibude" -> Some (Lazy.force minibude)
  | _ -> None

let builder name =
  match String.lowercase_ascii name with
  | "babelstream" -> Some (fun ~model -> Babelstream.codebase ~model)
  | "babelstream-f" | "babelstream-fortran" ->
      Some (fun ~model -> Babelstream_f.codebase ~model)
  | "tealeaf" -> Some (fun ~model -> Tealeaf.codebase ~model)
  | "cloverleaf" -> Some (fun ~model -> Cloverleaf.codebase ~model)
  | "minibude" -> Some (fun ~model -> Minibude.codebase ~model)
  | _ -> None
