module Pmodel = Sv_perf.Pmodel
module Platform = Sv_perf.Platform
module Phi = Sv_perf.Phi

type point = {
  model_id : string;
  model_name : string;
  marker : char;
  phi : float;
  div_t_sem : float;
  div_t_src : float;
}

(* positional markers following Pmodel.all_parallel order:
   Omp, Target, Cuda, Hip, Usm, Accessors, Kokkos, tBb, stdPar *)
let markers = "OTCHUAKBP"

let points ~app ~serial ~codebases ~platforms =
  let models = Pmodel.all_parallel in
  List.filter_map
    (fun (c : Pipeline.indexed) ->
      match Pmodel.find c.Pipeline.ix_model with
      | Some m when m.Pmodel.id <> "serial" ->
          let phi = Phi.phi_of_model ~app ~models ~platforms m in
          let idx =
            match
              List.find_index (fun (x : Pmodel.t) -> x.Pmodel.id = m.Pmodel.id) models
            with
            | Some i -> i
            | None -> 0
          in
          Some
            {
              model_id = m.Pmodel.id;
              model_name = m.Pmodel.name;
              marker = markers.[idx mod String.length markers];
              phi;
              div_t_sem = Tbmd.divergence Tbmd.TSem serial c;
              div_t_src = Tbmd.divergence Tbmd.TSrc serial c;
            }
      | _ -> None)
    codebases

let render pts =
  let chart_points =
    List.concat_map
      (fun p ->
        [
          (1.0 -. p.div_t_sem, p.phi, p.marker);
          (1.0 -. p.div_t_src, p.phi, Char.lowercase_ascii p.marker);
        ])
      pts
  in
  let legend =
    List.map
      (fun p ->
        Printf.sprintf "  %c/%c %-18s Phi=%.3f  T_sem=%.2f  T_src=%.2f" p.marker
          (Char.lowercase_ascii p.marker) p.model_name p.phi p.div_t_sem p.div_t_src)
      pts
  in
  Sv_report.Report.scatter ~xlabel:"proximity to serial (1 - divergence)"
    ~ylabel:"Phi" chart_points
  ^ "legend (uppercase = T_sem, lowercase = T_src):\n"
  ^ String.concat "\n" legend ^ "\n"

(* Fig. 15's "find the nearest existing port" as a query primitive: the
   k candidates nearest the query codebase under the unnormalized
   integer divergence, through [Tbmd]'s VP-tree, with the eval count the
   index actually spent (vs a brute-force scan of all candidates). *)
type nearest_hit = {
  nh_model : string;
  nh_model_name : string;
  nh_d : int;
  nh_div : float;
}

let nearest_candidates ~query codebases =
  List.filter
    (fun (c : Pipeline.indexed) ->
      c.Pipeline.ix_model <> query.Pipeline.ix_model)
    codebases

let nearest_index ?variant ?(metric = Tbmd.TSem) cands =
  match cands with [] -> None | _ -> Some (Tbmd.vp_index ?variant metric cands)

let hit_of ((c : Pipeline.indexed), d, div) =
  {
    nh_model = c.Pipeline.ix_model;
    nh_model_name = c.Pipeline.ix_model_name;
    nh_d = d;
    nh_div = div;
  }

let nearest_in idx ~k ?budget ?epsilon query =
  let hits, ledger = Tbmd.vp_nearest idx ~k ?budget ?epsilon query in
  (List.map hit_of hits, ledger)

let nearest_ports ?variant ?metric ?budget ?epsilon ~k ~query codebases =
  match nearest_index ?variant ?metric (nearest_candidates ~query codebases) with
  | None -> ([], { Sv_metric.Vptree.evals = 0; guaranteed_exact = true })
  | Some idx -> nearest_in idx ~k ?budget ?epsilon query

type scenario_stage = {
  stage : int;
  description : string;
  platform_abbrs : string list;
  phi_cuda : float;
  best_alternative : (string * float) option;
}

let cuda_scenario ~app ~serial ~codebases =
  let models = Pmodel.all_parallel in
  (* Divergence from the existing CUDA port — stage 3 weighs migration
     cost, not greenfield productivity. *)
  let cuda_cb =
    List.find_opt (fun (c : Pipeline.indexed) -> c.Pipeline.ix_model = "cuda") codebases
  in
  let divergence_from_cuda id =
    match
      ( cuda_cb,
        List.find_opt (fun (c : Pipeline.indexed) -> c.Pipeline.ix_model = id) codebases )
    with
    | Some base, Some target -> Tbmd.divergence Tbmd.TSem base target
    | _ -> Tbmd.divergence Tbmd.TSem serial serial (* 0.0 fallback *)
  in
  let stage_of n description platforms ~weigh_migration =
    let phi m = Phi.phi_of_model ~app ~models ~platforms m in
    let phi_cuda = phi Pmodel.cuda in
    let score (m : Pmodel.t) =
      if weigh_migration then phi m *. (1.0 -. divergence_from_cuda m.Pmodel.id)
      else phi m
    in
    let best_alternative =
      List.fold_left
        (fun best (m : Pmodel.t) ->
          if m.Pmodel.id = "cuda" then best
          else
            let v = score m in
            match best with
            | Some (_, bv) when bv >= v -> best
            | _ -> Some (m.Pmodel.name, v))
        None models
    in
    {
      stage = n;
      description;
      platform_abbrs = List.map (fun (p : Platform.t) -> p.Platform.abbr) platforms;
      phi_cuda;
      best_alternative;
    }
  in
  [
    stage_of 1 "NVIDIA GPUs are the only platform; the CUDA port covers it"
      [ Platform.h100 ] ~weigh_migration:false;
    stage_of 2 "an AMD system arrives; the CUDA-only codebase stops being portable"
      [ Platform.h100; Platform.mi250x ] ~weigh_migration:false;
    stage_of 3
      "pick by Phi weighted by porting proximity to the existing CUDA code"
      [ Platform.h100; Platform.mi250x ] ~weigh_migration:true;
  ]
