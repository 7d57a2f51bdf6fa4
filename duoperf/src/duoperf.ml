(* duoperf: the repository benchmark.

     duoperf --workload mas-nli|serve-refine --seed N
             --seconds S --trace 0|1

   Runs one workload at one seed, from the root of a source checkout
   (BENCHMARK.json names the metrics).  With --trace 0 the workload runs
   untraced in this process and the result line carries every end-to-end
   metric.  With --trace 1 it runs twice, each time in a fresh child
   process: once untraced and once traced (spans around every call into
   a layer); the result line carries every per-layer metric, the tracing
   overhead, and the run fails unless both children emitted the same
   candidates.  Human-readable lines come first; the last line of
   standard output is the JSON result.  The exit code is nonzero when a
   correctness check or an operation fails. *)

module Json = Duoserve.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("duoperf: " ^ m);
      exit 2)
    fmt

(* --- BENCHMARK.json: the metric names and units ---------------------- *)

let benchmark_metrics section =
  let doc =
    match Util.read_file "BENCHMARK.json" with
    | None -> die "BENCHMARK.json not found in the working directory"
    | Some s -> ( match Json.parse s with Ok j -> j | Error e -> die "BENCHMARK.json: %s" e)
  in
  match Option.bind (Json.member section doc) Json.get_list with
  | None -> die "BENCHMARK.json has no %s list" section
  | Some ms ->
      List.map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.get_str,
              Option.bind (Json.member "unit" m) Json.get_str )
          with
          | Some n, Some u -> (n, u)
          | _ -> die "BENCHMARK.json: malformed %s entry" section)
        ms

(* --- workloads ------------------------------------------------------- *)

let run_workload ~workload ~seed ~seconds ~traced =
  match workload with
  | "mas-nli" -> Mas_work.run ~seconds ~traced
  | "serve-refine" -> Serve_work.run ~seed ~seconds ~traced
  | w -> die "unknown workload %S (mas-nli, serve-refine)" w

let print_result (r : Util.result) =
  List.iter print_endline r.Util.notes;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev r.Util.ledger.Util.problems)

(* The machine-readable line a child hands its parent. *)
let child_line (r : Util.result) =
  Json.to_string
    (Json.Obj
       [
         ("attempted", Json.Num (float_of_int r.Util.ledger.Util.attempted));
         ("failed", Json.Num (float_of_int r.Util.ledger.Util.failed));
         ("digest", Json.Str r.Util.digest);
         ("metrics", Json.List (List.map Util.metric_to_json (r.Util.end_to_end @ r.Util.layers)));
       ])

type child = {
  c_attempted : int;
  c_failed : int;
  c_digest : string;
  c_metrics : Util.metric list;
}

let parse_child line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      let num f = Option.bind (Json.member f j) Json.get_int in
      match
        ( num "attempted",
          num "failed",
          Option.bind (Json.member "digest" j) Json.get_str,
          Option.bind (Json.member "metrics" j) Json.get_list )
      with
      | Some a, Some f, Some d, Some ms ->
          Some
            {
              c_attempted = a;
              c_failed = f;
              c_digest = d;
              c_metrics = List.filter_map Util.metric_of_json ms;
            }
      | _ -> None)

(* Run this program again as a child; its output is echoed, prefixed, and
   its last line parsed. *)
let spawn_child ~phase args =
  let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--phase"; phase ]) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if !last <> "" then Printf.printf "[%s] %s\n%!" phase !last;
       last := line
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED _ -> parse_child !last
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None

(* Built by hand so that every value keeps all its digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let str s = Json.to_string (Json.Str s) in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (m : Util.metric) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (str m.Util.m_name)
              (Util.num_literal m.Util.m_value) (str m.Util.m_unit))
          metrics))

(* Pick the named metrics in BENCHMARK.json order.  [required] names must
   be produced; the others default to 0 (not measured on this
   workload). *)
let select ~required names (ms : Util.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Util.metric) -> m.Util.m_name = name) ms with
      | Some m when m.Util.m_unit = unit_ -> m
      | Some m -> die "metric %s measured in %s but BENCHMARK.json says %s" name m.Util.m_unit unit_
      | None when required -> die "metric %s was not measured" name
      | None -> Util.metric name unit_ 0.0)
    names

let finish ~correct ~attempted ~failed metrics =
  print_endline "metrics:";
  List.iter Util.print_metric metrics;
  (* a metric without samples (say, no gold emitted at all) is a failure,
     and JSON has no NaN *)
  let unmeasured = List.filter (fun (m : Util.metric) -> not (Float.is_finite m.Util.m_value)) metrics in
  List.iter (fun (m : Util.metric) -> Printf.printf "FAILED: %s could not be measured\n" m.Util.m_name) unmeasured;
  let failed = failed + List.length unmeasured in
  let metrics =
    List.map
      (fun (m : Util.metric) -> if Float.is_finite m.Util.m_value then m else { m with Util.m_value = 0.0 })
      metrics
  in
  let correct = correct && failed = 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

let main ~workload ~seed ~seconds ~trace ~phase =
  let e2e_names = benchmark_metrics "end_to_end" in
  let layer_names = benchmark_metrics "per_layer" in
  print_endline (Util.host_line ~domains:(Duocore.Enumerate.effective_domains Mas_work.config));
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" workload seed seconds trace;
  match (phase, trace) with
  | Some phase, _ ->
      let r = run_workload ~workload ~seed ~seconds ~traced:(phase = "traced") in
      print_result r;
      if phase = "traced" then begin
        Util.ensure_out_dir ();
        let path = Printf.sprintf "%s/trace-%s-%d.jsonl" Util.out_dir workload seed in
        Trace.write path;
        Printf.printf "spans: %d written to %s\n" (List.length (Trace.all ())) path
      end;
      print_endline (child_line r)
  | None, 0 ->
      let r = run_workload ~workload ~seed ~seconds ~traced:false in
      print_result r;
      Printf.printf "digest: %s\n" r.Util.digest;
      let l = r.Util.ledger in
      finish ~correct:true ~attempted:l.Util.attempted ~failed:l.Util.failed
        (select ~required:true e2e_names r.Util.end_to_end)
  | None, _ ->
      let args =
        [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
      in
      let untraced = spawn_child ~phase:"untraced" args in
      let traced = spawn_child ~phase:"traced" args in
      (match (untraced, traced) with
      | Some u, Some t ->
          let same_digest = u.c_digest = t.c_digest in
          Printf.printf "digest: untraced %s traced %s%s\n" u.c_digest t.c_digest
            (if same_digest then "" else "  MISMATCH");
          let find name ms =
            match List.find_opt (fun (m : Util.metric) -> m.Util.m_name = name) ms with
            | Some m -> m.Util.m_value
            | None -> nan
          in
          (* tracing overhead on the timing metrics: traced / untraced - 1,
             signed so that positive means the traced run was slower *)
          let overhead name ~higher_better =
            let a = find name u.c_metrics and b = find name t.c_metrics in
            let rel = if higher_better then (a /. b) -. 1.0 else (b /. a) -. 1.0 in
            Util.metric ("trace.overhead." ^ name) "fraction" rel
          in
          Printf.printf "untraced end-to-end:\n";
          List.iter Util.print_metric (select ~required:true e2e_names u.c_metrics);
          let layers =
            t.c_metrics
            @ [
                overhead "pops_per_s" ~higher_better:true;
                overhead "session_ms_gmean" ~higher_better:false;
              ]
          in
          finish ~correct:same_digest
            ~attempted:(u.c_attempted + t.c_attempted + 1)
            ~failed:(u.c_failed + t.c_failed + if same_digest then 0 else 1)
            (select ~required:false layer_names layers)
      | _ -> die "a child run did not produce a result")

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let phase = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
    | "--trace" :: n :: rest -> trace := int_of_string n; parse rest
    | "--phase" :: p :: rest -> phase := Some p; parse rest
    | arg :: _ -> die "unknown argument %s" arg
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ -> die "bad argument value");
  if !workload = "" then die "--workload is required";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~phase:!phase
