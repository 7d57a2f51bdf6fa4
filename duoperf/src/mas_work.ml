(* mas-nli: the fourteen MAS study tasks A1-D3, NLQ plus tagged
   literals, no sketch.  Every call is pop-bounded with the wall-clock
   budget far above the run, so the work and the candidates are fixed
   (the inputs do not depend on the seed) and time varies only with
   speed. *)

module Mas = Duobench.Mas
module E = Duocore.Enumerate

let config =
  { E.default_config with E.max_pops = 12_000; max_candidates = 40; time_budget_s = 3600.0 }

let tasks = Mas.nli_study_tasks @ Mas.pbe_study_tasks

type setup = {
  jobs : Synth.job list;
  db_s : float;
  index_s : float;
  total_s : float;
}

let setup_once () =
  Gc.compact ();
  let t0 = Util.now () in
  let db = Mas.database () in
  let t1 = Util.now () in
  let session = Duocore.Duoquest.create_session db in
  ignore (Duocore.Duoquest.session_index session);
  let t2 = Util.now () in
  let jobs =
    List.map
      (fun (task : Mas.task) ->
        {
          Synth.rid = task.Mas.task_id;
          session;
          nlq = task.Mas.task_nlq;
          literals = task.Mas.task_literals;
          tsq = None;
          gold = Mas.gold task;
        })
      tasks
  in
  let t3 = Util.now () in
  { jobs; db_s = t1 -. t0; index_s = t2 -. t1; total_s = t3 -. t0 }

(* Set up several times, each from a compacted heap, and keep one: the
   reported set-up time is the median, so one slow repetition does not
   move it.  The repetitions are split between the start and the end of
   the run, so that they sample the host's speed at two moments (taken
   together at the start, their median moved by up to a third between
   runs); the heap figures are read before the second half.  Only the
   timings of the other repetitions are kept, so their
   databases and indexes are garbage at once and the heap figures are
   the program's alone. *)
let setup_reps = 21

type timing = { t_total : float; t_db : float; t_index : float }

let timing (s : setup) = { t_total = s.total_s; t_db = s.db_s; t_index = s.index_s }
let setup_timings k = List.init k (fun _ -> timing (setup_once ()))

let digest runs =
  let buf = Buffer.create 4096 in
  runs
  |> List.sort (fun a b -> compare a.Synth.job.Synth.rid b.Synth.job.Synth.rid)
  |> List.iter (fun r -> Check.digest_add buf ~rid:r.Synth.job.Synth.rid (Synth.candidates r));
  Check.digest buf

(* The first and gold emissions of a short task last a few milliseconds,
   so one sample is mostly noise, and samples taken together in a burst
   share the host's speed of that moment.  So a task whose gold (or,
   without a gold, first) emission came within [long_s] re-runs that
   prefix alone: the candidate budget cut at the gold's rank, since the
   enumeration up to an emission does not depend on the budget.  Prefixes
   shorter than [short_s] re-run once after every later call of the pass
   and then until they have [min_reps] extra samples; after that, every
   prefix re-runs while the run is inside [seconds], up to [max_reps].
   The reported times are per-task medians. *)
let short_s = 0.3
let long_s = 1.0
let min_reps = 4
let max_reps = 8

let prefix (r : Synth.run) =
  let upto = match r.Synth.gold_at with Some t -> Some t | None -> r.Synth.first in
  match upto with
  | Some t when t < long_s ->
      let keep =
        match Duocore.Duoquest.rank_of r.Synth.outcome ~gold:r.Synth.job.Synth.gold with
        | Some k -> k
        | None -> 1
      in
      Some (t < short_s, { config with E.max_candidates = keep })
  | Some _ | None -> None

(* Each call starts from a compacted heap, so a task's time does not
   depend on the garbage the calls before it left.  A raising call is a
   failed operation. *)
let call ledger cfg ~traced (job : Synth.job) =
  Util.attempt ledger;
  Gc.compact ();
  match Synth.run cfg ~traced job with
  | r -> Some r
  | exception e ->
      Util.fail ledger "%s: synthesis raised %s" job.Synth.rid (Printexc.to_string e);
      None

type latency = { run : Synth.run; short : bool; cfg : E.config; mutable samples : Synth.run list }

(* The pass over the tasks, with the latency samples interleaved; returns
   the pass's runs and, per task, the runs its times are the median of.
   The prefixes re-run while [t_start + seconds] is ahead. *)
let measure ~traced ~t_start ~seconds ledger (s : setup) =
  Trace.reset ();
  let prefixes = ref [] in
  let round want =
    List.iter
      (fun l ->
        if want l then
          match call ledger l.cfg ~traced:false l.run.Synth.job with
          | Some x -> l.samples <- x :: l.samples
          | None -> ())
      !prefixes
  in
  let below k l = List.length l.samples < k in
  let runs =
    List.filter_map
      (fun job ->
        let r = call ledger config ~traced job in
        round (fun l -> l.short && below max_reps l);
        (match Option.bind r (fun r -> Option.map (fun p -> (r, p)) (prefix r)) with
        | Some (run, (short, cfg)) -> prefixes := !prefixes @ [ { run; short; cfg; samples = [] } ]
        | None -> ());
        r)
      s.jobs
  in
  (* bounded, in case calls keep failing *)
  for _ = 1 to min_reps do
    round (fun l -> l.short && below min_reps l)
  done;
  let rounds = ref 0 in
  while
    !rounds < max_reps
    && Util.now () -. t_start < seconds
    && List.exists (below max_reps) !prefixes
  do
    incr rounds;
    round (below max_reps)
  done;
  let samples (r : Synth.run) =
    match List.find_opt (fun l -> l.run == r) !prefixes with
    | Some l -> r :: l.samples
    | None -> [ r ]
  in
  (runs, samples)

(* The host's speed drifts over seconds to tens of seconds, by up to a
   third between runs, so the tasks run in three passes: two earlier ones
   (their spans are dropped) and the measured one.  A task's wall time is
   the fastest of its three, and its first and gold times the medians
   over all passes and its prefix re-runs.  Each earlier pass runs on a
   set-up of its own, so every pass starts from a fresh session; of it
   only these figures and the candidates are kept, so its database,
   session and outcomes are garbage before the next pass. *)
let early_passes = 2

type early = {
  e_rid : string;
  e_wall : float;
  e_first : float option;
  e_gold : float option;
  e_cands : (string * float * int) list;
}

let early_pass ledger ~traced =
  let s = setup_once () in
  List.filter_map
    (fun job ->
      Option.map
        (fun (r : Synth.run) ->
          { e_rid = job.Synth.rid; e_wall = r.Synth.wall; e_first = r.Synth.first;
            e_gold = r.Synth.gold_at; e_cands = Synth.candidates r })
        (call ledger config ~traced job))
    s.jobs

let run ~seconds ~traced =
  let ledger = Util.ledger () in
  let before = setup_timings (setup_reps / 2) in
  let s = setup_once () in
  let t_start = Util.now () in
  let early = List.concat (List.init early_passes (fun _ -> early_pass ledger ~traced)) in
  let runs, samples = measure ~traced ~t_start ~seconds ledger s in
  let dg = digest runs in
  let early_of (r : Synth.run) = List.filter (fun e -> e.e_rid = r.Synth.job.Synth.rid) early in
  List.iter
    (fun (r : Synth.run) ->
      Util.attempt ledger;
      if List.exists (fun e -> e.e_cands <> Synth.candidates r) (early_of r) then
        Util.fail ledger "%s: the passes emitted different candidates" r.Synth.job.Synth.rid)
    runs;
  let merged =
    List.map
      (fun (r : Synth.run) ->
        let es = early_of r in
        let med f g =
          match List.filter_map f (samples r) @ List.filter_map g es with
          | [] -> None
          | ys -> Some (Util.median ys)
        in
        { r with
          Synth.wall = List.fold_left (fun w e -> Float.min w e.e_wall) r.Synth.wall es;
          first = med (fun x -> x.Synth.first) (fun e -> e.e_first);
          gold_at = med (fun x -> x.Synth.gold_at) (fun e -> e.e_gold) })
      runs
  in
  let n = List.length merged in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let timings = before @ (timing s :: setup_timings (setup_reps - 1 - (setup_reps / 2))) in
  let setup_s = Util.median (List.map (fun t -> t.t_total) timings) in
  let end_to_end =
    Util.metric ~n:setup_reps "setup_s" "s" setup_s
    :: Synth.throughput merged
    @ Synth.latency_quality merged
    @ [
        Util.metric ~n "session_ms_gmean" "ms"
          (Util.gmean (List.map (fun (r : Synth.run) -> r.Synth.wall *. 1000.0) merged));
        Util.metric "peak_heap_mb" "MB" (float_of_int top_heap_words *. Util.word_mb);
      ]
  in
  let layers =
    if not traced then []
    else
      Util.
        [
          metric ~n:setup_reps "setup.db_s" "s" (median (List.map (fun t -> t.t_db) timings));
          metric ~n:setup_reps "setup.index_s" "s" (median (List.map (fun t -> t.t_index) timings));
          Synth.replay_layer runs;
        ]
      @ Synth.layers runs @ Synth.duopar_layers runs @ Synth.gc_layers ~top_heap_words @ Synth.self_layers ()
  in
  let notes =
    [
      Printf.sprintf "%d tasks (%d pops budget, %d candidates)" n config.E.max_pops
        config.E.max_candidates;
    ]
    @ List.map
        (fun (r : Synth.run) ->
          Printf.sprintf "  %s wall %.3fs pops %d cands %d rank %s first %s gold %s"
            r.Synth.job.Synth.rid r.Synth.wall r.Synth.outcome.E.out_pops
            (List.length r.Synth.outcome.E.out_candidates)
            (match Duocore.Duoquest.rank_of r.Synth.outcome ~gold:r.Synth.job.Synth.gold with
            | Some k -> string_of_int k
            | None -> "-")
            (match r.Synth.first with Some t -> Printf.sprintf "%.4fs" t | None -> "-")
            (match r.Synth.gold_at with Some t -> Printf.sprintf "%.4fs" t | None -> "-"))
        (List.sort (fun a b -> compare a.Synth.job.Synth.rid b.Synth.job.Synth.rid) merged)
  in
  { Util.end_to_end; layers; ledger; digest = dg; notes }
