type codebase = {
  app : string;
  model : string;
  model_name : string;
  lang : [ `C | `F ];
  main_file : string;
  extra_units : string list;
  files : (string * string) list;
  system_headers : string list;
  defines : (string * string) list;
}

type gen = {
  g_id : string;
  g_name : string;
  g_includes : string list;
  g_tops : string list;
  g_prologue : string list;
  g_epilogue : string list;
  g_alloc : name:string -> n:string -> string list;
  g_dealloc : name:string -> n:string -> string list;
  g_arr : string -> string -> string;
  g_map :
    name:string -> n:string -> arrays:string list -> scalars:(string * string) list ->
    body:string list -> string list * string list;
  g_reduce :
    name:string -> n:string -> arrays:string list -> scalars:(string * string) list ->
    result:string -> expr:string -> string list * string list;
  g_read_back : host:string -> dev:string -> n:string -> string list;
  g_arr_param : string -> string;
  g_ctx_params : (string * string) list;
}

let indent pfx = List.map (fun l -> if l = "" then l else pfx ^ l)
let deref a i = Printf.sprintf "%s[%s]" a i
let paren a i = Printf.sprintf "%s(%s)" a i

(* ---------------------------------------------------------------- *)
(* Serial                                                            *)
(* ---------------------------------------------------------------- *)

let plain_alloc ~name ~n = [ Printf.sprintf "double *%s = new double[%s];" name n ]
let plain_dealloc ~name ~n:_ = [ Printf.sprintf "delete[] %s;" name ]

let serial_loop ~n ~body =
  (Printf.sprintf "for (int i = 0; i < %s; i++) {" n :: indent "  " body) @ [ "}" ]

let gen_serial =
  {
    g_id = "serial";
    g_name = "Serial";
    g_includes = [];
    g_tops = [];
    g_prologue = [];
    g_epilogue = [];
    g_alloc = plain_alloc;
    g_dealloc = plain_dealloc;
    g_arr = deref;
    g_map = (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~body -> ([], serial_loop ~n ~body));
    g_reduce =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          (Printf.sprintf "%s = 0.0;" result)
          :: serial_loop ~n ~body:[ Printf.sprintf "%s += %s;" result expr ] ));
    g_read_back = (fun ~host:_ ~dev:_ ~n:_ -> []);
    g_arr_param = (fun name -> "double *" ^ name);
    g_ctx_params = [];
  }

(* ---------------------------------------------------------------- *)
(* OpenMP (host)                                                     *)
(* ---------------------------------------------------------------- *)

let gen_omp =
  {
    gen_serial with
    g_id = "omp";
    g_name = "OpenMP";
    g_includes = [ "omp.h" ];
    g_map =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~body ->
        ([], "#pragma omp parallel for" :: serial_loop ~n ~body));
    g_reduce =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          [ Printf.sprintf "%s = 0.0;" result;
            Printf.sprintf "#pragma omp parallel for reduction(+ : %s)" result ]
          @ serial_loop ~n ~body:[ Printf.sprintf "%s += %s;" result expr ] ));
  }

(* ---------------------------------------------------------------- *)
(* OpenMP target                                                     *)
(* ---------------------------------------------------------------- *)

let gen_omp_target =
  {
    gen_serial with
    g_id = "omp-target";
    g_name = "OpenMP target";
    g_includes = [ "omp.h" ];
    g_alloc =
      (fun ~name ~n ->
        [
          Printf.sprintf "double *%s = new double[%s];" name n;
          Printf.sprintf "#pragma omp target enter data map(alloc: %s[0:%s])" name n;
        ]);
    g_dealloc =
      (fun ~name ~n ->
        [
          Printf.sprintf "#pragma omp target exit data map(release: %s[0:%s])" name n;
          Printf.sprintf "delete[] %s;" name;
        ]);
    g_map =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~body ->
        ([], "#pragma omp target teams distribute parallel for" :: serial_loop ~n ~body));
    g_reduce =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          [ Printf.sprintf "%s = 0.0;" result;
            Printf.sprintf
              "#pragma omp target teams distribute parallel for map(tofrom: %s) reduction(+ : %s)"
              result result ]
          @ serial_loop ~n ~body:[ Printf.sprintf "%s += %s;" result expr ] ));
    g_read_back =
      (fun ~host ~dev ~n ->
        [
          Printf.sprintf "#pragma omp target update from(%s[0:%s])" dev n;
          Printf.sprintf "double *%s = %s;" host dev;
        ]);
  }

(* ---------------------------------------------------------------- *)
(* CUDA / HIP                                                        *)
(* ---------------------------------------------------------------- *)

let kernel_params arrays scalars =
  String.concat ", "
    (List.map (fun a -> "double *" ^ a) arrays
    @ List.map (fun (ty, s) -> ty ^ " " ^ s) scalars
    @ [ "int n" ])

let kernel_args arrays scalars extra n =
  String.concat ", " (arrays @ List.map snd scalars @ extra @ [ n ])

let gen_gpu ~id ~name ~api =
  (* [api] is "cuda" or "hip": runtime function prefix and header name *)
  let sync = Printf.sprintf "%sDeviceSynchronize();" api in
  let memcpy_dh = Printf.sprintf "%sMemcpyDeviceToHost" api in
  {
    g_id = id;
    g_name = name;
    g_includes = [ api ^ ".h" ];
    g_tops = [ "#define TBSIZE 256" ];
    g_prologue = [];
    g_epilogue = [];
    g_alloc =
      (fun ~name ~n ->
        [
          Printf.sprintf "double *%s;" name;
          Printf.sprintf "%sMalloc((void **)&%s, %s * sizeof(double));" api name n;
        ]);
    g_dealloc = (fun ~name ~n:_ -> [ Printf.sprintf "%sFree(%s);" api name ]);
    g_arr = deref;
    g_map =
      (fun ~name ~n ~arrays ~scalars ~body ->
        let defs =
          [
            Printf.sprintf "__global__ void %s_kernel(%s) {" name
              (kernel_params arrays scalars);
            "  const int i = blockDim.x * blockIdx.x + threadIdx.x;";
            "  if (i < n) {";
          ]
          @ indent "    " body
          @ [ "  }"; "}" ]
        in
        let calls =
          [
            Printf.sprintf "%s_kernel<<<(%s + TBSIZE - 1) / TBSIZE, TBSIZE>>>(%s);" name n
              (kernel_args arrays scalars [] n);
            sync;
          ]
        in
        (defs, calls));
    g_reduce =
      (fun ~name ~n ~arrays ~scalars ~result ~expr ->
        let defs =
          [
            Printf.sprintf "__global__ void %s_kernel(%s) {" name
              (kernel_params (arrays @ [ name ^ "_partials" ]) scalars);
            "  const int i = blockDim.x * blockIdx.x + threadIdx.x;";
            "  if (i < n) {";
            Printf.sprintf "    %s_partials[blockIdx.x] += %s;" name expr;
            "  }";
            "}";
          ]
        in
        let calls =
          [
            Printf.sprintf "const int %s_blocks = (%s + TBSIZE - 1) / TBSIZE;" name n;
            Printf.sprintf "double *%s_partials;" name;
            Printf.sprintf "%sMalloc((void **)&%s_partials, %s_blocks * sizeof(double));" api
              name name;
            Printf.sprintf "%sMemset(%s_partials, 0, %s_blocks * sizeof(double));" api name
              name;
            Printf.sprintf "%s_kernel<<<%s_blocks, TBSIZE>>>(%s);" name name
              (kernel_args arrays scalars [ name ^ "_partials" ] n);
            sync;
            Printf.sprintf "double *%s_host = new double[%s_blocks];" name name;
            Printf.sprintf "%sMemcpy(%s_host, %s_partials, %s_blocks * sizeof(double), %s);"
              api name name name memcpy_dh;
            Printf.sprintf "%s = 0.0;" result;
            Printf.sprintf "for (int blk = 0; blk < %s_blocks; blk++) {" name;
            Printf.sprintf "  %s += %s_host[blk];" result name;
            "}";
            Printf.sprintf "%sFree(%s_partials);" api name;
            Printf.sprintf "delete[] %s_host;" name;
          ]
        in
        (defs, calls));
    g_read_back =
      (fun ~host ~dev ~n ->
        [
          Printf.sprintf "double *%s = new double[%s];" host n;
          Printf.sprintf "%sMemcpy(%s, %s, %s * sizeof(double), %s);" api host dev n
            memcpy_dh;
        ]);
    g_arr_param = (fun name -> "double *" ^ name);
    g_ctx_params = [];
  }

let gen_cuda = gen_gpu ~id:"cuda" ~name:"CUDA" ~api:"cuda"
let gen_hip = gen_gpu ~id:"hip" ~name:"HIP" ~api:"hip"

(* ---------------------------------------------------------------- *)
(* SYCL (USM)                                                        *)
(* ---------------------------------------------------------------- *)

let gen_sycl_usm =
  {
    g_id = "sycl-usm";
    g_name = "SYCL (USM)";
    g_includes = [ "sycl.h" ];
    g_tops = [ "#define WGSIZE 256" ];
    g_prologue = [ "sycl::queue q;" ];
    g_epilogue = [];
    g_alloc =
      (fun ~name ~n ->
        [
          Printf.sprintf "double *%s = (double *)sycl::malloc_shared(%s * sizeof(double), q);"
            name n;
        ]);
    g_dealloc = (fun ~name ~n:_ -> [ Printf.sprintf "sycl::free(%s, q);" name ]);
    g_arr = deref;
    g_map =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~body ->
        ( [],
          [ Printf.sprintf "q.parallel_for(sycl::range<1>(%s), [=](sycl::id<1> i) {" n ]
          @ indent "  " body
          @ [ "});"; "q.wait();" ] ));
    g_reduce =
      (fun ~name ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          [
            Printf.sprintf "const int %s_groups = (%s + WGSIZE - 1) / WGSIZE;" name n;
            Printf.sprintf
              "double *%s_partials = (double *)sycl::malloc_shared(%s_groups * sizeof(double), q);"
              name name;
            Printf.sprintf "q.parallel_for(sycl::range<1>(%s_groups), [=](sycl::id<1> g) {"
              name;
            "  double acc = 0.0;";
            Printf.sprintf "  for (int i = g * WGSIZE; i < %s && i < (g + 1) * WGSIZE; i++) {" n;
            Printf.sprintf "    acc += %s;" expr;
            "  }";
            Printf.sprintf "  %s_partials[g] = acc;" name;
            "});";
            "q.wait();";
            Printf.sprintf "%s = 0.0;" result;
            Printf.sprintf "for (int g = 0; g < %s_groups; g++) {" name;
            Printf.sprintf "  %s += %s_partials[g];" result name;
            "}";
            Printf.sprintf "sycl::free(%s_partials, q);" name;
          ] ));
    g_read_back = (fun ~host:_ ~dev:_ ~n:_ -> []);
    g_arr_param = (fun name -> "double *" ^ name);
    g_ctx_params = [ ("sycl::queue &", "q") ];
  }

(* ---------------------------------------------------------------- *)
(* SYCL (Accessors)                                                  *)
(* ---------------------------------------------------------------- *)

let acc_name a = "acc_" ^ a

let gen_sycl_acc =
  {
    g_id = "sycl-acc";
    g_name = "SYCL (Accessors)";
    g_includes = [ "sycl.h" ];
    g_tops = [ "#define WGSIZE 256" ];
    g_prologue = [ "sycl::queue q;" ];
    g_epilogue = [];
    g_alloc = (fun ~name ~n -> [ Printf.sprintf "sycl::buffer<double, 1> %s(%s);" name n ]);
    g_dealloc = (fun ~name:_ ~n:_ -> []);
    g_arr = (fun a i -> deref (acc_name a) i);
    g_map =
      (fun ~name ~n ~arrays ~scalars:_ ~body ->
        ( [],
          [ "q.submit([&](sycl::handler &h) {" ]
          @ List.map
              (fun a -> Printf.sprintf "  auto %s = %s.get_access(h);" (acc_name a) a)
              arrays
          @ [
              Printf.sprintf
                "  h.parallel_for<class %s_k>(sycl::range<1>(%s), [=](sycl::id<1> i) {" name n;
            ]
          @ indent "    " body
          @ [ "  });"; "});"; "q.wait();" ] ));
    g_reduce =
      (fun ~name ~n ~arrays ~scalars:_ ~result ~expr ->
        ( [],
          [
            Printf.sprintf "const int %s_groups = (%s + WGSIZE - 1) / WGSIZE;" name n;
            Printf.sprintf "sycl::buffer<double, 1> %s_partials(%s_groups);" name name;
            "q.submit([&](sycl::handler &h) {";
          ]
          @ List.map
              (fun a -> Printf.sprintf "  auto %s = %s.get_access(h);" (acc_name a) a)
              arrays
          @ [
              Printf.sprintf "  auto %s = %s_partials.get_access(h);" (acc_name (name ^ "_partials")) name;
              Printf.sprintf
                "  h.parallel_for<class %s_k>(sycl::range<1>(%s_groups), [=](sycl::id<1> g) {"
                name name;
              "    double acc = 0.0;";
              Printf.sprintf "    for (int i = g * WGSIZE; i < %s && i < (g + 1) * WGSIZE; i++) {" n;
              Printf.sprintf "      acc += %s;" expr;
              "    }";
              Printf.sprintf "    %s[g] = acc;" (acc_name (name ^ "_partials"));
              "  });";
              "});";
              "q.wait();";
              Printf.sprintf "auto %s_hp = %s_partials.get_host_access();" name name;
              Printf.sprintf "%s = 0.0;" result;
              Printf.sprintf "for (int g = 0; g < %s_groups; g++) {" name;
              Printf.sprintf "  %s += %s_hp[g];" result name;
              "}";
            ] ));
    g_read_back =
      (fun ~host ~dev ~n:_ ->
        [ Printf.sprintf "auto %s = %s.get_host_access();" host dev ]);
    g_arr_param = (fun name -> "sycl::buffer<double, 1> &" ^ name);
    g_ctx_params = [ ("sycl::queue &", "q") ];
  }

(* ---------------------------------------------------------------- *)
(* Kokkos                                                            *)
(* ---------------------------------------------------------------- *)

let gen_kokkos =
  {
    g_id = "kokkos";
    g_name = "Kokkos";
    g_includes = [ "kokkos.h" ];
    g_tops = [];
    g_prologue = [ "Kokkos::initialize();" ];
    g_epilogue = [ "Kokkos::finalize();" ];
    g_alloc =
      (fun ~name ~n ->
        [ Printf.sprintf "Kokkos::View<double*> %s(\"%s\", %s);" name name n ]);
    g_dealloc = (fun ~name:_ ~n:_ -> []);
    g_arr = paren;
    g_map =
      (fun ~name ~n ~arrays:_ ~scalars:_ ~body ->
        ( [],
          [ Printf.sprintf "Kokkos::parallel_for(\"%s\", %s, KOKKOS_LAMBDA(const int i) {" name n ]
          @ indent "  " body
          @ [ "});"; "Kokkos::fence();" ] ));
    g_reduce =
      (fun ~name ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          [
            Printf.sprintf
              "Kokkos::parallel_reduce(\"%s\", %s, KOKKOS_LAMBDA(const int i, double &acc) {"
              name n;
            Printf.sprintf "  acc += %s;" expr;
            Printf.sprintf "}, &%s);" result;
          ] ));
    g_read_back = (fun ~host:_ ~dev:_ ~n:_ -> []);
    g_arr_param = (fun name -> "Kokkos::View<double*> " ^ name);
    g_ctx_params = [];
  }

(* ---------------------------------------------------------------- *)
(* TBB                                                               *)
(* ---------------------------------------------------------------- *)

let tbb_range_loop body =
  [ "  for (int i = rng.begin(); i < rng.end(); i++) {" ] @ indent "    " body @ [ "  }" ]

let gen_tbb =
  {
    g_id = "tbb";
    g_name = "TBB";
    g_includes = [ "tbb.h" ];
    g_tops = [];
    g_prologue = [];
    g_epilogue = [];
    g_alloc = plain_alloc;
    g_dealloc = plain_dealloc;
    g_arr = deref;
    g_map =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~body ->
        ( [],
          [
            Printf.sprintf
              "tbb::parallel_for(tbb::blocked_range<int>(0, %s), [=](tbb::blocked_range<int> rng) {"
              n;
          ]
          @ tbb_range_loop body
          @ [ "});" ] ));
    g_reduce =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          [
            Printf.sprintf
              "%s = tbb::parallel_reduce(tbb::blocked_range<int>(0, %s), 0.0, [=](tbb::blocked_range<int> rng, double acc) {"
              result n;
          ]
          @ tbb_range_loop [ Printf.sprintf "acc += %s;" expr ]
          @ [ "  return acc;"; "}, [=](double x, double y) { return x + y; });" ] ));
    g_read_back = (fun ~host:_ ~dev:_ ~n:_ -> []);
    g_arr_param = (fun name -> "double *" ^ name);
    g_ctx_params = [];
  }

(* ---------------------------------------------------------------- *)
(* StdPar                                                            *)
(* ---------------------------------------------------------------- *)

let gen_stdpar =
  {
    g_id = "stdpar";
    g_name = "StdPar";
    g_includes = [ "stdpar.h" ];
    g_tops = [];
    g_prologue = [];
    g_epilogue = [];
    g_alloc = plain_alloc;
    g_dealloc = plain_dealloc;
    g_arr = deref;
    g_map =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~body ->
        ( [],
          [
            Printf.sprintf
              "std::for_each(std::execution::par_unseq, counting_iterator(0), counting_iterator(%s), [=](int i) {"
              n;
          ]
          @ indent "  " body
          @ [ "});" ] ));
    g_reduce =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          [
            Printf.sprintf
              "%s = std::transform_reduce(std::execution::par_unseq, counting_iterator(0), counting_iterator(%s), 0.0, [=](double x, double y) {"
              result n;
            "  return x + y;";
            "}, [=](int i) {";
            Printf.sprintf "  return %s;" expr;
            "});";
          ] ));
    g_read_back = (fun ~host:_ ~dev:_ ~n:_ -> []);
    g_arr_param = (fun name -> "double *" ^ name);
    g_ctx_params = [];
  }

(* ---------------------------------------------------------------- *)
(* RAJA (extension model: mentioned alongside Kokkos in the paper's  *)
(* introduction but not part of the Table II evaluation)             *)
(* ---------------------------------------------------------------- *)

let gen_raja =
  {
    g_id = "raja";
    g_name = "RAJA";
    g_includes = [ "raja.h" ];
    g_tops = [];
    g_prologue = [];
    g_epilogue = [];
    g_alloc = plain_alloc;
    g_dealloc = plain_dealloc;
    g_arr = deref;
    g_map =
      (fun ~name:_ ~n ~arrays:_ ~scalars:_ ~body ->
        ( [],
          [
            Printf.sprintf
              "RAJA::forall<RAJA::omp_parallel_for_exec>(RAJA::RangeSegment(0, %s), [=](int i) {"
              n;
          ]
          @ indent "  " body
          @ [ "});" ] ));
    g_reduce =
      (fun ~name ~n ~arrays:_ ~scalars:_ ~result ~expr ->
        ( [],
          [
            Printf.sprintf
              "RAJA::ReduceSum<RAJA::omp_reduce, double> %s_red(0.0);" name;
            Printf.sprintf
              "RAJA::forall<RAJA::omp_parallel_for_exec>(RAJA::RangeSegment(0, %s), [=](int i) {"
              n;
            Printf.sprintf "  %s_red += %s;" name expr;
            "});";
            Printf.sprintf "%s = %s_red.get();" result name;
          ] ));
    g_read_back = (fun ~host:_ ~dev:_ ~n:_ -> []);
    g_arr_param = (fun name -> "double *" ^ name);
    g_ctx_params = [];
  }

(* ---------------------------------------------------------------- *)

let evaluated =
  [
    gen_serial; gen_omp; gen_omp_target; gen_cuda; gen_hip;
    gen_sycl_usm; gen_sycl_acc; gen_kokkos; gen_tbb; gen_stdpar;
  ]

let all = evaluated @ [ gen_raja ]

let all_ids = List.map (fun g -> g.g_id) evaluated
let extended_ids = List.map (fun g -> g.g_id) all
let gen_for id = List.find_opt (fun g -> g.g_id = id) all
let model_name g = g.g_name
let includes g = g.g_includes
let alloc g = g.g_alloc
let dealloc g = g.g_dealloc
let arr g = g.g_arr
let map_kernel g = g.g_map
let reduce_kernel g = g.g_reduce
let read_back g = g.g_read_back
let arr_param g = g.g_arr_param
let ctx_params g = g.g_ctx_params

let indent_block = indent "  "

let render_support ~header_comment ~tops ~functions g =
  let b = Buffer.create 4096 in
  let line l =
    Buffer.add_string b l;
    Buffer.add_char b '\n'
  in
  line ("// " ^ header_comment);
  List.iter (fun h -> line (Printf.sprintf "#include \"%s\"" h)) [ "stdio.h"; "stdlib.h"; "math.h" ];
  List.iter (fun h -> line (Printf.sprintf "#include \"%s\"" h)) g.g_includes;
  line "";
  List.iter line g.g_tops;
  List.iter line tops;
  line "";
  List.iter line functions;
  Buffer.contents b

let render ~header_comment ~tops ~main_body g =
  let b = Buffer.create 4096 in
  let line l =
    Buffer.add_string b l;
    Buffer.add_char b '\n'
  in
  line ("// " ^ header_comment);
  List.iter (fun h -> line (Printf.sprintf "#include \"%s\"" h)) [ "stdio.h"; "stdlib.h"; "math.h" ];
  List.iter (fun h -> line (Printf.sprintf "#include \"%s\"" h)) g.g_includes;
  line "";
  List.iter line g.g_tops;
  List.iter line tops;
  line "";
  line "int main() {";
  List.iter line (indent "  " (g.g_prologue @ main_body @ g.g_epilogue));
  line "  return 0;";
  line "}";
  Buffer.contents b

let wrap ?(extra = []) ~app g ~source ~main_file () =
  {
    app;
    model = g.g_id;
    model_name = g.g_name;
    lang = `C;
    main_file;
    extra_units = List.map fst extra;
    files = (((main_file, source) :: extra) @ Shim.for_model g.g_id) @ Shim.system;
    system_headers = Shim.system_names;
    defines = [];
  }
