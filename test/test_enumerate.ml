module Enumerate = Duocore.Enumerate
module Partial = Duocore.Partial
module Model = Duoguide.Model

let schema = Fixtures.movie_schema
let db = Fixtures.movie_db ()

let ctx nlq = Model.make schema (Duonl.Nlq.analyze nlq)

let test_root_expansion () =
  let children =
    Enumerate.expand ~guided:true Enumerate.no_hints
      (ctx "movie names") Partial.root
  in
  Alcotest.(check int) "8 keyword subsets" 8 (List.length children);
  List.iter
    (fun (c : Partial.t) ->
      Alcotest.(check bool) "moved past keywords" true
        (c.Partial.phase = Partial.P_num_proj))
    children

let test_confidence_partition () =
  (* Property 1 at the root: children's confidences sum to the parent's. *)
  let children =
    Enumerate.expand ~guided:true Enumerate.no_hints (ctx "movie names") Partial.root
  in
  let total = List.fold_left (fun acc c -> acc +. c.Partial.confidence) 0.0 children in
  Alcotest.(check (float 1e-6)) "children partition parent mass" 1.0 total

let test_uniform_mode () =
  let children =
    Enumerate.expand ~guided:false Enumerate.no_hints (ctx "movie names") Partial.root
  in
  List.iter
    (fun (c : Partial.t) ->
      Alcotest.(check (float 1e-9)) "uniform 1/8" 0.125 c.Partial.confidence)
    children

let test_done_is_terminal () =
  let s = { Partial.root with Partial.phase = Partial.P_done } in
  Alcotest.(check int) "no children" 0
    (List.length (Enumerate.expand ~guided:true Enumerate.no_hints (ctx "x") s))

let test_hints_of_tsq () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ]
      ~sorted:true ~limit:5 ()
  in
  let h = Enumerate.hints_of_tsq tsq in
  Alcotest.(check (option int)) "width hint" (Some 2) h.Enumerate.h_nproj;
  Alcotest.(check (option int)) "limit hint" (Some 5) h.Enumerate.h_limit

let test_run_respects_budget () =
  let config =
    { Enumerate.default_config with Enumerate.max_pops = 50; max_candidates = 1000 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names") db ~tsq:None ~literals:[] ()
  in
  Alcotest.(check bool) "pops bounded" true (outcome.Enumerate.out_pops <= 50)

let test_run_exhausts_tiny_space () =
  (* An impossible TSQ: a text type annotation whose value exists nowhere.
     Everything prunes and the frontier drains. *)
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 200_000;
      time_budget_s = 20.0 }
  in
  let outcome =
    Enumerate.run config (ctx "names") db ~tsq:(Some tsq) ~literals:[] ()
  in
  Alcotest.(check int) "no candidates" 0 (List.length outcome.Enumerate.out_candidates);
  (* the frontier drained without compaction ever discarding a state, so
     this really was an exhaustive enumeration *)
  Alcotest.(check int) "nothing dropped" 0 outcome.Enumerate.out_dropped;
  Alcotest.(check bool) "exhaustion reported" true outcome.Enumerate.out_exhausted

let test_dropped_states_veto_exhaustion () =
  (* regression: with a tiny frontier cap, compaction throws states away;
     an empty frontier then no longer proves the space was enumerated, so
     out_exhausted must stay false (and out_dropped says why) *)
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 200_000;
      time_budget_s = 20.0;
      max_frontier = 4 }
  in
  let outcome =
    Enumerate.run config (ctx "names") db ~tsq:(Some tsq) ~literals:[] ()
  in
  Alcotest.(check bool) "compaction dropped states" true
    (outcome.Enumerate.out_dropped > 0);
  Alcotest.(check bool) "no exhaustion claim after drops" false
    outcome.Enumerate.out_exhausted

let test_time_budget_is_wall_clock () =
  (* regression: the budget must follow real time, not processor time — a
     stalled consumer (sleeping callback burns no CPU) still exhausts it *)
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 1_000_000;
      max_candidates = 1_000;
      time_budget_s = 0.05 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names") db ~tsq:None ~literals:[]
      ~on_candidate:(fun _ -> Unix.sleepf 0.06) ()
  in
  Alcotest.(check bool) "stopped after the first stall" true
    (List.length outcome.Enumerate.out_candidates <= 2);
  Alcotest.(check bool) "elapsed measured in wall time" true
    (outcome.Enumerate.out_elapsed_s >= 0.05)

let test_candidates_unique () =
  let config =
    { Enumerate.default_config with Enumerate.max_pops = 20_000; max_candidates = 50 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names and years") db ~tsq:None ~literals:[] ()
  in
  let rec pairwise_distinct = function
    | [] -> true
    | c :: rest ->
        List.for_all
          (fun c' ->
            not
              (Duosql.Equal.queries c.Enumerate.cand_query c'.Enumerate.cand_query))
          rest
        && pairwise_distinct rest
  in
  Alcotest.(check bool) "no duplicate candidates" true
    (pairwise_distinct outcome.Enumerate.out_candidates)

let test_partial_to_query_roundtrip () =
  (* A fully decided state must render to a runnable query. *)
  let name_col = Duodb.Schema.find_column_exn schema ~table:"movies" "name" in
  let st =
    { Partial.root with
      Partial.phase = Partial.P_done;
      kw = { Model.kw_where = false; kw_group = false; kw_order = false };
      nproj = 1;
      projs =
        [ { Partial.pj_target = Model.Target_column name_col; pj_agg = Some None } ];
      from = Some (Duosql.Ast.from_table "movies") }
  in
  match Partial.to_query st with
  | Some q ->
      let res = Duoengine.Executor.run_exn db q in
      Alcotest.(check int) "6 movies" 6 (Duoengine.Executor.cardinality res)
  | None -> Alcotest.fail "expected a complete query"

let test_partial_key_distinguishes () =
  let a = Partial.root in
  let b = { Partial.root with Partial.phase = Partial.P_num_proj } in
  Alcotest.(check bool) "different phases, different keys" true
    (Partial.key a <> Partial.key b);
  Alcotest.(check string) "key deterministic" (Partial.key a) (Partial.key a)

let test_stats_attribution () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with Enumerate.max_pops = 5_000; max_candidates = 20 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names") db ~tsq:(Some tsq) ~literals:[] ()
  in
  let s = outcome.Enumerate.out_stats in
  let attributed =
    List.fold_left
      (fun acc st -> acc + Duocore.Verify.pruned_by s st)
      0 Duocore.Verify.all_stages
  in
  Alcotest.(check int) "every prune attributed to a stage" s.Duocore.Verify.pruned
    attributed

(* --- Duopar: runs sharded over a pool are observably identical --- *)

let run_config =
  { Enumerate.default_config with
    Enumerate.max_pops = 4_000;
    max_candidates = 30;
    time_budget_s = 20.0 }

let run_seq ?(config = run_config) ?tsq nlq =
  Enumerate.run config (ctx nlq) db ~tsq ~literals:[] ()

(* Duobench shards independent runs over a [Duopar.Pool]: four copies of
   one run, one per domain, must each match the sequential run. *)
let sharded run =
  Duopar.Pool.with_pool ~domains:4 (fun pool ->
      let out = Array.make 4 None in
      Duopar.Pool.run pool 4 (fun ~worker:_ i -> out.(i) <- Some (run ()));
      List.filter_map Fun.id (Array.to_list out))

let candidate_sigs (o : Enumerate.outcome) =
  List.map
    (fun c ->
      ( Duosql.Pretty.query c.Enumerate.cand_query,
        c.Enumerate.cand_index,
        c.Enumerate.cand_pops ))
    o.Enumerate.out_candidates

let check_identical seq par =
  Alcotest.(check (list (triple string int int)))
    "same candidates, same order, same pop counts" (candidate_sigs seq)
    (candidate_sigs par);
  Alcotest.(check int) "same pops" seq.Enumerate.out_pops par.Enumerate.out_pops;
  Alcotest.(check int) "same pushes" seq.Enumerate.out_pushed
    par.Enumerate.out_pushed;
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "same prunes in %s" (Duocore.Verify.stage_name stage))
        (Duocore.Verify.pruned_by seq.Enumerate.out_stats stage)
        (Duocore.Verify.pruned_by par.Enumerate.out_stats stage))
    Duocore.Verify.all_stages

let test_parallel_identical_nli () =
  let seq = run_seq "movie names and years" in
  List.iter (check_identical seq)
    (sharded (fun () -> run_seq "movie names and years"))

let test_parallel_identical_dual () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let seq = run_seq ~tsq "movie names" in
  Alcotest.(check bool) "found something" true
    (seq.Enumerate.out_candidates <> []);
  List.iter (check_identical seq) (sharded (fun () -> run_seq ~tsq "movie names"))

let test_parallel_exhaustion_identical () =
  (* the exhaustive-enumeration flag survives running on another domain *)
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 200_000;
      time_budget_s = 20.0 }
  in
  let seq = run_seq ~config ~tsq "names" in
  List.iter
    (fun (par : Enumerate.outcome) ->
      Alcotest.(check int) "no candidates" 0
        (List.length par.Enumerate.out_candidates);
      Alcotest.(check bool) "still exhausted" seq.Enumerate.out_exhausted
        par.Enumerate.out_exhausted;
      Alcotest.(check int) "same pops" seq.Enumerate.out_pops
        par.Enumerate.out_pops)
    (sharded (fun () -> run_seq ~config ~tsq "names"))

(* Each run owns its hash memo and visited set: runs of different NLQs
   sharded over a 2-domain pool must each match their own sequential
   run.  A memo shared between runs would move push or dedup counts. *)
let test_parallel_distinct_runs () =
  let nlqs =
    [| "movie names and years"; "names of actors born after 1960";
       "movies with revenue above 500"; "female actor names" |]
  in
  let seq = Array.map (fun nlq -> run_seq nlq) nlqs in
  let par =
    Duopar.Pool.with_pool ~domains:2 (fun pool ->
        let out = Array.make (Array.length nlqs) None in
        Duopar.Pool.run pool (Array.length nlqs) (fun ~worker:_ i ->
            out.(i) <- Some (run_seq nlqs.(i)));
        Array.map Option.get out)
  in
  let dedup (o : Enumerate.outcome) =
    o.Enumerate.out_stats.Duocore.Verify.dedup_semantic
  in
  Array.iteri
    (fun i s ->
      check_identical s par.(i);
      Alcotest.(check int)
        (Printf.sprintf "same dedup_semantic for %S" nlqs.(i))
        (dedup s) (dedup par.(i)))
    seq;
  Alcotest.(check bool) "the runs dedup something" true
    (Array.exists (fun o -> dedup o > 0) seq)

(* --- the visited set's hash: canonical twins hash alike --------------- *)

(* A complete conjunctive state over movies with the given WHERE list. *)
let where_state preds =
  let name_col = Duodb.Schema.find_column_exn schema ~table:"movies" "name" in
  { Partial.root with
    Partial.phase = Partial.P_done;
    kw = { Model.kw_where = true; kw_group = false; kw_order = false };
    nproj = 1;
    projs =
      [ { Partial.pj_target = Model.Target_column name_col; pj_agg = Some None } ];
    where_n = List.length preds;
    where_preds = preds;
    from = Some (Duosql.Ast.from_table "movies") }

let state_hash t = Partial.canonical_hash (Partial.hash_memo ()) t

let check_twins name a b =
  Alcotest.(check string)
    (name ^ ": canonical keys agree")
    (Partial.canonical_key a) (Partial.canonical_key b);
  Alcotest.(check int) (name ^ ": hashes agree") (state_hash a) (state_hash b)

let test_canonical_hash_twins () =
  let open Duosql.Ast in
  let year = col "movies" "year" and revenue = col "movies" "revenue" in
  let i n = Duodb.Value.Int n and f x = Duodb.Value.Float x in
  check_twins "swapped predicates"
    (where_state [ pred year Gt (i 1990); pred revenue Lt (i 500) ])
    (where_state [ pred revenue Lt (i 500); pred year Gt (i 1990) ]);
  check_twins "BETWEEN vs range pair, settled"
    (where_state
       [ between year (i 1990) (i 2000); pred revenue Ge (i 100);
         pred revenue Le (i 700) ])
    (where_state
       [ pred year Ge (i 1990); pred year Le (i 2000);
         between revenue (i 100) (i 700) ]);
  check_twins "Int 5 vs Float 5.0"
    (where_state [ pred year Eq (i 5) ])
    (where_state [ pred year Eq (f 5.0) ]);
  check_twins "floats equal under %g"
    (where_state [ pred revenue Gt (f 0.1234567) ])
    (where_state [ pred revenue Gt (f 0.12345671) ]);
  let a = where_state [ pred year Gt (i 1990) ] in
  check_twins "confidence and depth" a
    { a with Partial.confidence = 0.25; depth = 9 };
  let pending =
    { a with
      Partial.phase = Partial.P_order_target;
      kw = { Model.kw_where = true; kw_group = false; kw_order = true } }
  in
  check_twins "direction without an order item" pending
    { pending with Partial.order_dir = Desc };
  (* one memo, one physical WHERE list, two fold decisions: AND folds
     the settled list, OR only sorts it *)
  let shared = [ between year (i 3) (i 3); pred revenue Gt (i 1) ] in
  let conj = where_state shared in
  let disj = { conj with Partial.conn = Or } in
  let memo = Partial.hash_memo () in
  ignore (Partial.canonical_hash memo conj);
  Alcotest.(check int) "the memo follows the fold decision" (state_hash disj)
    (Partial.canonical_hash memo disj);
  (* the hash still tells states apart *)
  let b = where_state [ pred year Gt (i 1991) ] in
  Alcotest.(check bool) "different keys, different hashes" true
    (state_hash a <> state_hash b)

(* --- resumable stepping: pause/resume is observably identical --------- *)

(* Drive a run as a sequence of [slice]-pop steps; returns the final
   outcome and how many step calls it took. *)
let stepped ~slice ?tsq ?(config = run_config) nlq =
  let s = Enumerate.init config (ctx nlq) db ~tsq ~literals:[] () in
  Fun.protect
    ~finally:(fun () -> Enumerate.release s)
    (fun () ->
      let steps = ref 0 in
      let rec go () =
        incr steps;
        match Enumerate.step ~max_pops:slice s with
        | Enumerate.Running -> go ()
        | Enumerate.Finished -> ()
      in
      go ();
      Alcotest.(check bool) "finished reported" true (Enumerate.finished s);
      (* stepping a finished state is a no-op *)
      (match Enumerate.step ~max_pops:slice s with
      | Enumerate.Finished -> ()
      | Enumerate.Running -> Alcotest.fail "step after Finished ran");
      (Enumerate.outcome s, !steps))

let check_flags (seq : Enumerate.outcome) (st : Enumerate.outcome) =
  Alcotest.(check bool) "same exhausted flag" seq.Enumerate.out_exhausted
    st.Enumerate.out_exhausted;
  Alcotest.(check int) "same dropped count" seq.Enumerate.out_dropped
    st.Enumerate.out_dropped

let test_resume_identical_nli () =
  let full = run_seq "movie names and years" in
  List.iter
    (fun slice ->
      let st, steps = stepped ~slice "movie names and years" in
      Alcotest.(check bool)
        (Printf.sprintf "slice %d really paused" slice)
        true
        (steps > 1);
      check_identical full st;
      check_flags full st)
    [ 1; 7; 64 ]

let test_resume_identical_dual () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let full = run_seq ~tsq "movie names" in
  Alcotest.(check bool) "found something" true
    (full.Enumerate.out_candidates <> []);
  let st, _ = stepped ~slice:5 ~tsq "movie names" in
  check_identical full st;
  check_flags full st

let test_resume_exhaustion_flags () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 200_000;
      time_budget_s = 20.0 }
  in
  let full = Enumerate.run config (ctx "names") db ~tsq:(Some tsq) ~literals:[] () in
  let st, _ = stepped ~slice:17 ~tsq ~config "names" in
  Alcotest.(check bool) "exhaustive run" true full.Enumerate.out_exhausted;
  check_identical full st;
  check_flags full st

let test_resume_snapshot_prefix () =
  (* a mid-run snapshot's candidates are a prefix of the final list *)
  let config = run_config in
  let s =
    Enumerate.init config (ctx "movie names and years") db ~tsq:None
      ~literals:[] ()
  in
  Fun.protect
    ~finally:(fun () -> Enumerate.release s)
    (fun () ->
      let rec drive snapshots =
        let snap = Enumerate.outcome s in
        match Enumerate.step ~max_pops:40 s with
        | Enumerate.Running -> drive (snap :: snapshots)
        | Enumerate.Finished -> (Enumerate.outcome s, snapshots)
      in
      let final, snapshots = drive [] in
      let final_sigs = candidate_sigs final in
      List.iter
        (fun snap ->
          let sigs = candidate_sigs snap in
          let n = List.length sigs in
          Alcotest.(check (list (triple string int int)))
            "snapshot is a prefix of the final candidates" sigs
            (List.filteri (fun i _ -> i < n) final_sigs))
        snapshots)

let suite =
  [
    Alcotest.test_case "root expansion" `Quick test_root_expansion;
    Alcotest.test_case "resume: stepped NLI run identical" `Quick
      test_resume_identical_nli;
    Alcotest.test_case "resume: stepped dual-spec run identical" `Quick
      test_resume_identical_dual;
    Alcotest.test_case "resume: exhaustion flags survive pausing" `Quick
      test_resume_exhaustion_flags;
    Alcotest.test_case "resume: snapshots are prefixes" `Quick
      test_resume_snapshot_prefix;
    Alcotest.test_case "duopar: NLI run identical" `Quick
      test_parallel_identical_nli;
    Alcotest.test_case "duopar: dual-spec run identical" `Quick
      test_parallel_identical_dual;
    Alcotest.test_case "duopar: exhaustion identical" `Quick
      test_parallel_exhaustion_identical;
    Alcotest.test_case "duopar: distinct runs identical" `Quick
      test_parallel_distinct_runs;
    Alcotest.test_case "canonical hash: twins collide" `Quick
      test_canonical_hash_twins;
    Alcotest.test_case "confidence partition" `Quick test_confidence_partition;
    Alcotest.test_case "uniform mode" `Quick test_uniform_mode;
    Alcotest.test_case "done is terminal" `Quick test_done_is_terminal;
    Alcotest.test_case "hints from TSQ" `Quick test_hints_of_tsq;
    Alcotest.test_case "pop budget respected" `Quick test_run_respects_budget;
    Alcotest.test_case "impossible TSQ yields nothing" `Quick test_run_exhausts_tiny_space;
    Alcotest.test_case "dropped states veto exhaustion" `Quick
      test_dropped_states_veto_exhaustion;
    Alcotest.test_case "time budget is wall-clock" `Quick
      test_time_budget_is_wall_clock;
    Alcotest.test_case "candidates unique" `Quick test_candidates_unique;
    Alcotest.test_case "partial to_query" `Quick test_partial_to_query_roundtrip;
    Alcotest.test_case "partial keys" `Quick test_partial_key_distinguishes;
    Alcotest.test_case "prune attribution" `Quick test_stats_attribution;
  ]
