(* One synthesis call, timed on the benchmark's clock.  The untraced form
   calls [Duoquest.synthesize]; the traced form calls [prepare], then
   [Enumerate.step] in slices, [outcome] and [release] inside spans —
   resume determinism makes the two bit-identical. *)

module E = Duocore.Enumerate
module Dq = Duocore.Duoquest
module Verify = Duocore.Verify
module Executor = Duoengine.Executor

type job = {
  rid : string;  (** MAS task id or session id *)
  session : Dq.session;
  nlq : string;
  literals : Duodb.Value.t list;
  tsq : Duocore.Tsq.t option;
  gold : Duosql.Ast.query;
}

type run = {
  job : job;
  wall : float;  (** call to return, seconds *)
  first : float option;  (** call to first [on_candidate] *)
  gold_at : float option;  (** call to the gold's [on_candidate] *)
  outcome : E.outcome;
  alloc_words : float;
  verifies : int;  (** [Verify.total_verifies] delta *)
  cache : int * int * int;  (** relation cache hits, misses, pushdown builds *)
}

let slice_pops = 256

let candidates r =
  List.map
    (fun c ->
      (Duosql.Pretty.query c.E.cand_query, c.E.cand_confidence, c.E.cand_pops))
    r.outcome.E.out_candidates

let top1 r =
  match r.outcome.E.out_candidates with
  | c :: _ -> Duolint.Duosem.equal_queries c.E.cand_query r.job.gold
  | [] -> false

let run config ~traced job =
  (* fresh per call, so the run behaves exactly as without one *)
  let relcache = Executor.create_cache () in
  let first = ref None and gold_at = ref None in
  let v0 = Verify.total_verifies () in
  let g0 = Util.allocated_words (Gc.quick_stat ()) in
  let t0 = Util.now () in
  let on_candidate c =
    let t = Util.now () -. t0 in
    if !first = None then first := Some t;
    if !gold_at = None && Duolint.Duosem.equal_queries c.E.cand_query job.gold then
      gold_at := Some t
  in
  let synth () =
    Dq.synthesize ~config ?tsq:job.tsq ~literals:job.literals ~relcache ~on_candidate
      job.session ~nlq:job.nlq ()
  in
  let synth_traced () =
    let rid = job.rid in
    Trace.with_span ~name:"task" ~rid ~parent:(-1) (fun parent ->
        let st =
          Trace.with_span ~name:"prepare" ~rid ~parent (fun _ ->
              Dq.prepare ~config ?tsq:job.tsq ~literals:job.literals ~relcache
                ~on_candidate job.session ~nlq:job.nlq ())
        in
        let rec loop () =
          match
            Trace.with_span ~name:"step" ~rid ~parent (fun _ ->
                E.step ~max_pops:slice_pops st)
          with
          | E.Running -> loop ()
          | E.Finished -> ()
        in
        loop ();
        let o = Trace.with_span ~name:"outcome" ~rid ~parent (fun _ -> E.outcome st) in
        Trace.with_span ~name:"release" ~rid ~parent (fun _ -> E.release st);
        o)
  in
  let outcome = if traced then synth_traced () else synth () in
  let wall = Util.now () -. t0 in
  {
    job;
    wall;
    first = !first;
    gold_at = !gold_at;
    outcome;
    alloc_words = Util.allocated_words (Gc.quick_stat ()) -. g0;
    verifies = Verify.total_verifies () - v0;
    cache = Executor.cache_stats relcache;
  }

(* Synthesis speed and allocation over a set of runs. *)
let throughput runs =
  let pops = Util.sum (List.map (fun r -> float_of_int r.outcome.E.out_pops) runs) in
  let wall = Util.sum (List.map (fun r -> r.wall) runs) in
  let n = List.length runs in
  Util.
    [
      metric ~n "pops_per_s" "pops/s" (ratio pops wall);
      metric ~n "alloc_mb" "MB" (sum (List.map (fun r -> r.alloc_words) runs) *. word_mb);
    ]

(* Latency to the first and the gold candidate, and gold quality. *)
let latency_quality runs =
  let n = List.length runs in
  let fl = float_of_int in
  let firsts = List.filter_map (fun r -> r.first) runs in
  let golds = List.filter_map (fun r -> r.gold_at) runs in
  let count p = fl (List.length (List.filter p runs)) in
  Util.
    [
      metric ~n:(List.length firsts) "time_to_first_s_gmean" "s" (gmean firsts);
      metric ~n:(List.length golds) "time_to_gold_s_gmean" "s" (gmean golds);
      metric ~n "gold_top1_frac" "fraction" (ratio (count top1) (fl n));
      metric ~n "gold_found_frac" "fraction" (ratio (count (fun r -> r.gold_at <> None)) (fl n));
    ]

(* Per-layer metrics of traced runs: span totals, outcome fields, the
   verification counters and the relation caches passed in. *)
let layers runs =
  let fl = float_of_int in
  let outs = List.map (fun r -> r.outcome) runs in
  let sumf f = Util.sum (List.map f outs) in
  let sumi f = sumf (fun o -> fl (f o)) in
  let stat f = sumi (fun o -> f o.E.out_stats) in
  let step_s = Trace.total "step" in
  let expand_s = sumf (fun o -> o.E.out_expand_s) in
  let verify_s = sumf (fun o -> o.E.out_verify_s) in
  let pops = sumi (fun o -> o.E.out_pops) in
  let pushed = sumi (fun o -> o.E.out_pushed) in
  let invocations = Util.sum (List.map (fun r -> fl r.verifies) runs) in
  let pruned = stat (fun s -> s.Verify.pruned) in
  let full = stat (fun s -> s.Verify.full_executions) in
  let cands = sumi (fun o -> List.length o.E.out_candidates) in
  let cache f = Util.sum (List.map (fun r -> fl (f r.cache)) runs) in
  let prepares = Trace.named "prepare" in
  let stages =
    List.concat_map
      (fun stage ->
        let name = Verify.stage_name stage in
        let i = Verify.stage_index stage in
        Util.
          [
            metric ("verify." ^ name ^ ".s") "s"
              (sumf (fun o -> o.E.out_stats.Verify.stage_seconds.(i)));
            metric ("verify." ^ name ^ ".pruned") "count"
              (stat (fun s -> Verify.pruned_by s stage));
          ])
      Verify.all_stages
  in
  Util.
    [
      metric ~n:(List.length prepares) "prepare.ms_p50" "ms"
        (median (List.map (fun s -> Trace.dur s *. 1000.0) prepares));
      metric ~n:(List.length prepares) "prepare.alloc_mb" "MB"
        (ratio (sum (List.map (fun s -> s.Trace.alloc_words) prepares) *. word_mb)
           (fl (List.length prepares)));
      metric "enumerate.step_s" "s" step_s;
      metric "enumerate.pops" "count" pops;
      metric "enumerate.pushed" "count" pushed;
      metric "enumerate.pushed_per_pop" "ratio" (ratio pushed pops);
      metric "enumerate.dropped" "count" (sumi (fun o -> o.E.out_dropped));
      metric "enumerate.expand_s" "s" expand_s;
      metric "enumerate.unattributed_s" "s" (step_s -. expand_s -. verify_s);
      metric "enumerate.attributed_frac" "fraction" (ratio (expand_s +. verify_s) step_s);
      metric "verify.s" "s" verify_s;
      metric "verify.invocations" "count" invocations;
    ]
  @ stages
  @ Util.
      [
        metric "verify.prune_yield" "fraction" (ratio pruned invocations);
        metric "verify.column_probes" "count" (stat (fun s -> s.Verify.column_probes));
        metric "verify.index_probes" "count" (stat (fun s -> s.Verify.index_probes));
        metric "verify.row_probes" "count" (stat (fun s -> s.Verify.row_probes));
        metric "verify.full_executions" "count" full;
        metric "verify.batch_rounds" "count" (stat (fun s -> s.Verify.batch_rounds));
        metric "verify.batched_probes" "count" (stat (fun s -> s.Verify.batched_probes));
        metric "verify.dedup_semantic" "count" (stat (fun s -> s.Verify.dedup_semantic));
        metric "verify.emit_yield" "ratio" (ratio cands full);
        metric "executor.relcache_hits" "count" (cache (fun (h, _, _) -> h));
        metric "executor.relcache_misses" "count" (cache (fun (_, m, _) -> m));
        metric "executor.pushdown_builds" "count" (cache (fun (_, _, p) -> p));
      ]

(* Duopar's view of in-process runs (the server reports its own). *)
let duopar_layers runs =
  let outs = List.map (fun r -> r.outcome) runs in
  let sumi f = Util.sum (List.map (fun o -> float_of_int (f o)) outs) in
  let spec_tasks = sumi (fun o -> o.E.out_spec_tasks) in
  Util.
    [
      metric "duopar.domains" "count"
        (List.fold_left (fun acc o -> Float.max acc (float_of_int o.E.out_domains)) 0.0 outs);
      metric "duopar.spec_tasks" "count" spec_tasks;
      metric "duopar.commit_rate" "fraction"
        (if spec_tasks = 0.0 then 1.0 else sumi (fun o -> o.E.out_spec_hits) /. spec_tasks);
    ]

(* GC deltas summed over the synthesis calls, plus the process's top
   heap as the caller read it ([Gc.stat.top_heap_words]). *)
let gc_layers ~top_heap_words =
  let roots = Trace.named "task" in
  let sumf f = Util.sum (List.map f roots) in
  Util.
    [
      metric "gc.alloc_mb" "MB" (sumf (fun s -> s.Trace.alloc_words) *. word_mb);
      metric "gc.minor_collections" "count" (sumf (fun s -> float_of_int s.Trace.minor));
      metric "gc.major_collections" "count" (sumf (fun s -> float_of_int s.Trace.major));
      metric "gc.promoted_mb" "MB" (sumf (fun s -> s.Trace.promoted_words) *. word_mb);
      metric "gc.top_heap_mb" "MB" (float_of_int top_heap_words *. word_mb);
    ]

(* Re-run the candidates emitted under a sketch through the executor with
   no relation cache: the cost of one complete execution, free of the
   cascade around it. *)
let replay_layer runs =
  let queries =
    List.concat_map
      (fun r ->
        if r.job.tsq = None then []
        else
          List.map
            (fun c -> (Dq.session_db r.job.session, c.E.cand_query))
            r.outcome.E.out_candidates)
      runs
  in
  let ms =
    match queries with
    | [] -> 0.0
    | _ ->
        let t0 = Util.now () in
        List.iter (fun (db, q) -> ignore (Executor.run db q)) queries;
        (Util.now () -. t0) *. 1000.0 /. float_of_int (List.length queries)
  in
  Util.metric ~n:(List.length queries) "executor.replay_ms_per_query" "ms" ms

(* Self time of each span name: the part of its interval no child span
   covers.  [self.task_s] is the benchmark's own time between calls. *)
let self_layers () =
  List.map
    (fun name ->
      Util.metric
        ("self." ^ name ^ "_s")
        "s"
        (Option.value ~default:0.0 (List.assoc_opt name (Trace.self_times ()))))
    [ "task"; "prepare"; "step"; "outcome"; "release" ]
