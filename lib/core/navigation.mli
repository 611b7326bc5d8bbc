(** Navigation charts: Φ against TBMD (§VI, Figs. 13–15).

    Combines the performance-portability metric with model divergence
    into one picture: the x axis is proximity to the serial baseline
    (1 − normalised divergence, so right = productive), the y axis is Φ.
    Each model contributes two linked points — [T_sem] (semantic) and
    [T_src] (perceived) — whose gap is the paper's model-bloat signal. *)

type point = {
  model_id : string;
  model_name : string;
  marker : char;          (** letter used in the ASCII chart *)
  phi : float;
  div_t_sem : float;      (** normalised T_sem divergence from serial *)
  div_t_src : float;
}

val points :
  app:Sv_perf.Pmodel.app ->
  serial:Pipeline.indexed ->
  codebases:Pipeline.indexed list ->
  platforms:Sv_perf.Platform.t list ->
  point list
(** [points ~app ~serial ~codebases ~platforms] — one point per non-serial
    codebase whose model id the performance model knows. Φ is computed
    over [platforms]; divergences against [serial]. *)

val render : point list -> string
(** The chart plus its legend. Each model plots its [T_sem] position with
    an uppercase marker and its [T_src] position with the lowercase one. *)

(** {2 Nearest existing port}

    Fig. 15's navigation question as an interactive query: which of the
    candidate ports is closest to this codebase? One best-first k-NN
    search through {!Tbmd.vp_index} on the unnormalized integer
    divergence — exact by default, approximate under a budget/ε — plus
    the per-query {!Sv_metric.Vptree.ledger}: the evaluation count the
    index spent (compare against the candidate count for the
    brute-force baseline) and the honest exactness claim. *)

type nearest_hit = {
  nh_model : string;
  nh_model_name : string;
  nh_d : int;  (** raw integer divergence *)
  nh_div : float;  (** normalised against the hit's own dmax *)
}

val nearest_candidates :
  query:Pipeline.indexed -> Pipeline.indexed list -> Pipeline.indexed list
(** Candidates sharing the query's model id are excluded (the port
    itself is not an answer). The result's order — hence its
    {!Tbmd.vp_key} — is what a resident daemon should key a memoised
    index on. *)

val nearest_index :
  ?variant:Tbmd.variant ->
  ?metric:Tbmd.metric ->
  Pipeline.indexed list ->
  Tbmd.vp option
(** Build (or, with a metric cache installed, reload) the VP-tree over
    an already-filtered candidate list; [None] iff the list is empty.
    Split from {!nearest_in} so a resident engine can build once and
    answer many queries. Default metric [T_sem]. *)

val nearest_in :
  Tbmd.vp ->
  k:int ->
  ?budget:int ->
  ?epsilon:float ->
  Pipeline.indexed ->
  nearest_hit list * Sv_metric.Vptree.ledger
(** Query a built index through {!Tbmd.vp_nearest}. With neither
    [budget] nor [epsilon] the hits equal brute force and
    [guaranteed_exact = true]; with either, the ledger says whether the
    cut search still provably does. *)

val nearest_ports :
  ?variant:Tbmd.variant ->
  ?metric:Tbmd.metric ->
  ?budget:int ->
  ?epsilon:float ->
  k:int ->
  query:Pipeline.indexed ->
  Pipeline.indexed list ->
  nearest_hit list * Sv_metric.Vptree.ledger
(** [nearest_ports ~k ~query codebases] composes the three pieces above:
    filter, index, query. No candidates yields [([], {evals = 0;
    guaranteed_exact = true})]. Default metric [T_sem]. *)

type scenario_stage = {
  stage : int;
  description : string;
  platform_abbrs : string list;
  phi_cuda : float;
  best_alternative : (string * float) option;
      (** highest-Φ model over the stage's platform set *)
}

val cuda_scenario :
  app:Sv_perf.Pmodel.app ->
  serial:Pipeline.indexed ->
  codebases:Pipeline.indexed list ->
  scenario_stage list
(** Fig. 15's story: stage 1 — NVIDIA-only world, CUDA has Φ = 1; stage 2
    — an AMD platform arrives and CUDA's Φ collapses to 0; stage 3 — the
    chart nominates the portable model to move to. *)
