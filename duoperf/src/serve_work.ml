(* serve-refine: an open-loop stream of Duoserve sessions.

   The server runs as its own process (bin/duoserve.exe) over seeded
   Spider-gen databases; one generator process with one thread drives it
   over one pipelined connection.  Sessions arrive at a fixed rate: half
   NLQ-only, a quarter dual, and a quarter dual sessions that open with a
   loosened sketch, finish, and then refine to the tight sketch (served
   by the warm [Enumerate.rebase] path).  Each request is timed from its
   scheduled send time.

   After the traffic the server is shut down and every distinct
   (task, kind) pair served is replayed solo with [Duoquest.synthesize]
   at the same budget: the served candidates must equal the replay's
   (a warm refinement must extend it), every candidate served under a
   sketch must satisfy it under the reference interpreter, and the
   replay gives the synthesis metrics of this task mix. *)

module Protocol = Duoserve.Protocol
module Json = Duoserve.Json
module Spider_gen = Duobench.Spider_gen
module Tsq = Duocore.Tsq
module E = Duocore.Enumerate

(* The databases and tasks are fixed: with a few dozen tasks, a
   seed-drawn task set would move the gold fractions by more than any
   bound.  The workload seed drives the session stream and the sketches. *)
let db_seed = 5
let n_dbs = 10
let per_db = 6
let max_sessions = 32
let slice_pops = 64

(* the server's session ceilings, which every open uses *)
let budget =
  { E.default_config with E.max_pops = 400; max_candidates = 5; time_budget_s = 60.0 }

(* The arrival rate is light: sessions arrive evenly spaced, 67 ms
   apart, and almost never overlap, so the end-to-end latencies measure
   a session's own cost (prepare, slices, codec, polls) rather than
   queueing, which the traced run's ladder measures instead.  Measured on
   a 2-core x86-64 host (OCaml 5.1.1, one server domain), five seeds
   each, within the same hour: at 30/s (about two thirds of the knee of
   40 to 45/s found by the ladder) the mean number of sessions in flight
   at an open ranged from 0.35 to 1.14 and session_ms_gmean from 17.7 to
   31.8 ms (IQR 0.37 of the median) while the solo replay's speed moved
   by a fifth: queueing amplified the host's drift.  At 15/s the mean in
   flight was 0.01 and session_ms_gmean 14.5 to 15.7 ms (IQR 0.07).  The
   latency limit of 250 ms is about eight times the unloaded p95; a
   growing backlog drives the p95 far past it. *)
let rate = 15.0  (* sessions per second *)
let poll_interval = 0.002
let latency_limit_ms = 250.0
let lag_bound_ms = 25.0
let drain_grace = 15.0
let ladder = [ 30.0; 37.5; 45.0; 52.5; 60.0 ]  (* sessions per second *)
let rung_sessions = 200
let setup_reps = 11
let replay_reps = 6  (* half before the traffic, half after *)

type kind = Nli | Dual | Refine

let kind_name = function Nli -> "nli" | Dual -> "dual" | Refine -> "refine"

type task = {
  k : int;
  sp : Spider_gen.task;
  db : Duodb.Database.t;
  tight : Tsq.t option;  (** the synthesized sketch *)
  loose : Tsq.t option;  (** a loosening of [tight] that it refines *)
  lossy : bool;  (** [Protocol.request_to_line] would change [tight] *)
}

(* Known defect: Duoserve's JSON printer (lib/serve/json.ml) writes
   numbers with twelve significant digits, so [Protocol.request_to_line]
   changes a sketch cell such as an AVG result (3.3333333333333335
   arrives as 3.33333333333), and a session opened with that line runs
   under a sketch its user did not write.  The generator still encodes
   every request with [Protocol.request_to_line], which the codec metrics
   time, but sends a request that carries a sketch re-printed with
   numbers that read back exactly ([exact_line]); each run reports how
   many tasks and requests the defect touches. *)

(* [v] printed as Json.to_string does, except that a number takes the
   fewest of 12, 15 or 17 significant digits that read back exactly *)
let rec exact_json buf v =
  let each f xs =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        f x)
      xs
  in
  match v with
  | Json.Num x when not (Float.is_integer x && Float.abs x < 1e15) ->
      let digits p = Printf.sprintf "%.*g" p x in
      Buffer.add_string buf
        (match List.find_opt (fun p -> float_of_string (digits p) = x) [ 12; 15 ] with
        | Some p -> digits p
        | None -> digits 17)
  | Json.List xs ->
      Buffer.add_char buf '[';
      each (exact_json buf) xs;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      each
        (fun (k, x) ->
          Buffer.add_string buf (Json.to_string (Json.Str k));
          Buffer.add_char buf ':';
          exact_json buf x)
        fields;
      Buffer.add_char buf '}'
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> Buffer.add_string buf (Json.to_string v)

let exact_string v =
  let buf = Buffer.create 256 in
  exact_json buf v;
  Buffer.contents buf

(* A float cell that holds an integer goes out as an integer and comes
   back an [Int]; that is not counted here, since the served = solo
   check shows it changes no candidate. *)
let lossy_on_wire t =
  let j = Protocol.tsq_to_json t in
  Json.to_string j <> exact_string j

(* [line], the program's encoding of [req], with its sketch exact *)
let exact_line req line =
  match req with
  | Protocol.Open_session { Protocol.op_tsq = Some t; _ } | Protocol.Refine_tsq (_, t) -> (
      match Json.parse line with
      | Ok (Json.Obj fields) ->
          exact_string
            (Json.Obj
               (List.map (fun (k, x) -> if k = "tsq" then (k, Protocol.tsq_to_json t) else (k, x)) fields))
      | Ok _ | Error _ -> failwith ("unexpected request line: " ^ line))
  | _ -> line

(* --- set-up: generated inputs and the server process ------------------ *)

let make_tasks ~seed ledger =
  let t0 = Util.now () in
  let split = Spider_gen.mini ~seed:db_seed ~n_dbs ~per_db () in
  let db_s = Util.now () -. t0 in
  let tsq_ms = ref [] in
  let tasks =
    List.mapi
      (fun k (sp : Spider_gen.task) ->
        let db = List.assoc sp.Spider_gen.sp_db split.Spider_gen.databases in
        let a = Util.now () in
        let synthesized =
          Option.map
            (fun t -> { t with Tsq.min_support = None })
            (Duobench.Tsq_synth.synthesize
               (Duobench.Rng.create ((seed * 7919) + k))
               db sp.Spider_gen.sp_gold ~detail:Duobench.Tsq_synth.Full)
        in
        tsq_ms := ((Util.now () -. a) *. 1000.0) :: !tsq_ms;
        if synthesized = None then begin
          (* its dual and refine sessions would open NLQ-only *)
          Util.attempt ledger;
          Util.fail ledger "%s task %d: no sketch could be synthesized" sp.Spider_gen.sp_db k
        end;
        let tight = synthesized in
        let loose =
          Option.bind tight (fun t ->
              let l =
                { t with
                  Tsq.tuples = (match t.Tsq.tuples with [] -> [] | x :: _ -> [ x ]);
                  sorted = false;
                  negatives = [] }
              in
              if Tsq.refines ~old:l ~new_:t = Tsq.Tightening then Some l else None)
        in
        { k; sp; db; tight; loose; lossy = Option.fold ~none:false ~some:lossy_on_wire tight })
      split.Spider_gen.tasks
  in
  (split, Array.of_list tasks, db_s, !tsq_ms)

let server_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/duoserve.exe"

let spawn_server ~sock =
  let exe = server_exe () in
  let args =
    [
      exe; "--socket"; sock; "--dbs"; string_of_int n_dbs; "--seed"; string_of_int db_seed;
      "--max-sessions"; string_of_int max_sessions; "--slice"; string_of_int slice_pops;
      "--max-pops"; string_of_int budget.E.max_pops; "--max-candidates";
      string_of_int budget.E.max_candidates; "--time-budget";
      Printf.sprintf "%g" budget.E.time_budget_s; "--domains"; "1";
    ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin devnull devnull in
  Unix.close devnull;
  pid

let rec connect ~pid ~sock ~deadline =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "duoserve exited during boot");
      if Util.now () > deadline then failwith "duoserve did not accept within 60 s";
      Unix.sleepf 0.001;
      connect ~pid ~sock ~deadline

(* Wait up to [timeout] seconds for the server to exit, then kill it;
   either way it is reaped before this returns. *)
let reap_server ?(timeout = 0.0) pid =
  let deadline = Util.now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* Peak resident set of a process, from /proc. *)
let peak_rss_mb pid =
  match Util.read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> nan
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb) with
              | Some kb -> float_of_int kb /. 1000.0
              | None -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' s)

(* --- the pipelined connection ---------------------------------------- *)

type req_kind = R_open | R_poll | R_refine | R_close | R_control

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_pos : int;
  inbuf : Buffer.t;
  pending : (req_kind * int * float) Queue.t;  (** kind, session index, send time *)
  mutable encode_s : float;
  mutable encoded : int;
  mutable reprinted : int;  (** lines [exact_line] changed *)
  mutable decode_s : float;
  mutable decoded_bytes : int;
  mutable cand_reply_bytes : int;
  mutable cand_replies : int;
}

let conn fd =
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 65536;
    out_pos = 0;
    inbuf = Buffer.create 65536;
    pending = Queue.create ();
    encode_s = 0.0;
    encoded = 0;
    reprinted = 0;
    decode_s = 0.0;
    decoded_bytes = 0;
    cand_reply_bytes = 0;
    cand_replies = 0;
  }

let send c kind idx req =
  let t0 = Util.now () in
  let line = Protocol.request_to_line req in
  let t1 = Util.now () in
  c.encode_s <- c.encode_s +. (t1 -. t0);
  c.encoded <- c.encoded + 1;
  let sent = exact_line req line in
  if sent <> line then c.reprinted <- c.reprinted + 1;
  Buffer.add_string c.out sent;
  Buffer.add_char c.out '\n';
  Queue.push (kind, idx, t0) c.pending

let flush_out c =
  let len = Buffer.length c.out - c.out_pos in
  if len > 0 then begin
    let bytes = Buffer.to_bytes c.out in
    match Unix.write c.fd bytes c.out_pos len with
    | n ->
        c.out_pos <- c.out_pos + n;
        if c.out_pos = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_pos <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  end

(* Read what is available; hand each complete reply line, parsed, to
   [on_reply] with the request it answers. *)
let read_replies c on_reply =
  let buf = Bytes.create 65536 in
  let rec drain () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> true
    | n ->
        Buffer.add_subbytes c.inbuf buf 0 n;
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  in
  let eof = drain () in
  let s = Buffer.contents c.inbuf in
  let rec lines from =
    match String.index_from_opt s from '\n' with
    | None -> from
    | Some nl ->
        let line = String.sub s from (nl - from) in
        let now = Util.now () in
        let kind, idx, sent =
          match Queue.take_opt c.pending with
          | Some p -> p
          | None -> failwith "duoserve sent a reply nobody asked for"
        in
        let t0 = Util.now () in
        let parsed = Json.parse line in
        c.decode_s <- c.decode_s +. (Util.now () -. t0);
        c.decoded_bytes <- c.decoded_bytes + String.length line;
        if kind = R_poll then begin
          c.cand_reply_bytes <- c.cand_reply_bytes + String.length line;
          c.cand_replies <- c.cand_replies + 1
        end;
        on_reply kind idx ~sent ~now parsed;
        lines (nl + 1)
  in
  let consumed = lines 0 in
  Buffer.clear c.inbuf;
  Buffer.add_substring c.inbuf s consumed (String.length s - consumed);
  if eof && not (Queue.is_empty c.pending) then failwith "duoserve closed the connection"

(* One blocking request/reply on an idle connection (control traffic). *)
let control c req =
  send c R_control (-1) req;
  let reply = ref None in
  while !reply = None do
    flush_out c;
    ignore (Unix.select [ c.fd ] [] [] 0.05);
    read_replies c (fun _ _ ~sent:_ ~now:_ j -> reply := Some j)
  done;
  match !reply with
  | Some (Ok j) -> j
  | Some (Error e) -> failwith ("unparsable control reply: " ^ e)
  | None -> assert false

(* --- sessions ---------------------------------------------------------- *)

type phase = Waiting | Opening | Running | Refining | Closing | Done | Failed

type sess = {
  idx : int;
  task : task;
  kind : kind;
  sched : float;  (** scheduled open time *)
  mutable sid : int;
  mutable phase : phase;
  mutable busy : bool;  (** a request is outstanding *)
  mutable next_poll : float;
  mutable first_at : float;  (** first poll showing a candidate *)
  mutable gold_at : float;  (** first poll showing the gold *)
  mutable checked : int;  (** candidates of the current run already checked for the gold *)
  mutable finished_at : float;  (** first finish (the loose run, for refine) *)
  mutable refine_sent : float;
  mutable refine_done : float;
  mutable sqls : string list;
}

(* The session stream: every fourth session is dual and every fourth a
   refinement, the rest NLQ-only; each kind cycles through its own seeded
   permutation of the tasks, so every task is served equally often and
   the seed moves the order and the sketches, not the task mix. *)
let schedule ~seed ~tasks ~t_begin ~rate ~n ~first_idx =
  let rng = Duobench.Rng.create ((seed * 31) + first_idx + 2) in
  let cycle pool =
    let perm = Array.of_list (Duobench.Rng.shuffle rng pool) in
    let i = ref (-1) in
    fun () ->
      incr i;
      perm.(!i mod Array.length perm)
  in
  let all = Array.to_list tasks in
  let refinable = List.filter (fun t -> t.loose <> None) all in
  let next_nli = cycle all and next_dual = cycle all in
  let next_refine = if refinable = [] then next_dual else cycle refinable in
  List.init n (fun i ->
      let kind, task =
        match i mod 4 with
        | 0 | 1 -> (Nli, next_nli ())
        | 2 -> (Dual, next_dual ())
        | _ -> if refinable = [] then (Dual, next_dual ()) else (Refine, next_refine ())
      in
      {
        idx = first_idx + i;
        task;
        kind;
        sched = t_begin +. (float_of_int i /. rate);
        sid = -1;
        phase = Waiting;
        busy = false;
        next_poll = infinity;
        first_at = nan;
        gold_at = nan;
        checked = 0;
        finished_at = nan;
        refine_sent = nan;
        refine_done = nan;
        sqls = [];
      })

type traffic = {
  sessions : sess array;
  lags_ms : float list;
  inflight : float list;  (** open sessions seen at each open *)
  open_rtt_ms : float list;
  poll_rtt_ms : float list;
  refine_rtt_ms : float list;
}

let str_field j f = Option.bind (Json.member f j) Json.get_str

let is_gold task sql =
  match Duosql.Parser.query ~schema:(Duodb.Database.schema task.db) sql with
  | Ok q -> Duolint.Duosem.equal_queries q task.sp.Spider_gen.sp_gold
  | Error _ -> false

(* Drive [sessions] to completion over [c]; [ledger] books every request.
   Sessions not done by [deadline] fail. *)
let drive c ledger ~traced (sessions : sess array) ~deadline =
  let lags = ref [] and inflight = ref [] in
  let open_rtt = ref [] and poll_rtt = ref [] and refine_rtt = ref [] in
  let next_open = ref 0 in
  let active = ref [] in
  let n = Array.length sessions in
  let remaining = ref n in
  let settle s phase =
    s.phase <- phase;
    decr remaining;
    active := List.filter (fun x -> x.idx <> s.idx) !active
  in
  let fail s fmt =
    Printf.ksprintf
      (fun msg ->
        Util.fail ledger "session %d (%s, %s): %s" s.idx s.task.sp.Spider_gen.sp_db
          (kind_name s.kind) msg;
        settle s Failed)
      fmt
  in
  let request s kind req =
    Util.attempt ledger;
    s.busy <- true;
    send c kind s.idx req
  in
  let by_idx idx = sessions.(idx - sessions.(0).idx) in
  (* what the client sees on a poll: the first candidate, and the gold
     (checked once per newly shown candidate) *)
  let seen s ~now =
    if Float.is_nan s.first_at && s.sqls <> [] then s.first_at <- now;
    if Float.is_nan s.gold_at then begin
      if List.exists (is_gold s.task) (List.filteri (fun i _ -> i >= s.checked) s.sqls) then
        s.gold_at <- now;
      s.checked <- List.length s.sqls
    end
  in
  let on_reply kind idx ~sent ~now parsed =
    let s = by_idx idx in
    s.busy <- false;
    let rid = string_of_int s.idx in
    (if traced then
       let name =
         match kind with
         | R_open -> "serve.open"
         | R_poll -> "serve.poll"
         | R_refine -> "serve.refine"
         | R_close | R_control -> "serve.close"
       in
       Trace.add ~name ~rid ~start:sent ~stop:now);
    let rtt = (now -. sent) *. 1000.0 in
    match parsed with
    | Error e -> fail s "unparsable reply: %s" e
    | Ok j -> (
        match Option.bind (Json.member "ok" j) Json.get_bool with
        | Some true -> (
            let status = str_field j "status" in
            let finished () = status <> Some "running" in
            let close () =
              s.phase <- Closing;
              request s R_close (Protocol.Close s.sid)
            in
            match kind with
            | R_open ->
                open_rtt := rtt :: !open_rtt;
                s.sid <- Option.value ~default:(-1) (Option.bind (Json.member "session" j) Json.get_int);
                s.phase <- Running;
                s.next_poll <- now +. poll_interval
            | R_poll ->
                poll_rtt := rtt :: !poll_rtt;
                s.sqls <-
                  (match Option.bind (Json.member "candidates" j) Json.get_list with
                  | Some cs -> List.filter_map (fun c -> str_field c "sql") cs
                  | None -> []);
                seen s ~now;
                if not (finished ()) then s.next_poll <- now +. poll_interval
                else if s.phase = Running then begin
                  s.finished_at <- now;
                  match (s.kind, s.task.tight) with
                  | Refine, Some tight ->
                      s.phase <- Refining;
                      s.refine_sent <- now;
                      s.checked <- 0;
                      request s R_refine (Protocol.Refine_tsq (s.sid, tight))
                  | (Refine | Nli | Dual), _ -> close ()
                end
                else begin
                  s.refine_done <- now;
                  close ()
                end
            | R_refine ->
                refine_rtt := rtt :: !refine_rtt;
                (* the final candidates come with the next poll *)
                s.next_poll <- now
            | R_close -> settle s Done
            | R_control -> ())
        | Some false | None ->
            (* "server full" included: a refused open misses every limit *)
            fail s "%s" (Option.value ~default:"error" (str_field j "error")))
  in
  while !remaining > 0 && Util.now () < deadline do
    let now = Util.now () in
    while !next_open < n && sessions.(!next_open).sched <= now do
      let s = sessions.(!next_open) in
      incr next_open;
      lags := ((now -. s.sched) *. 1000.0) :: !lags;
      inflight := float_of_int (List.length !active) :: !inflight;
      active := s :: !active;
      s.phase <- Opening;
      let tsq =
        match s.kind with Nli -> None | Dual -> s.task.tight | Refine -> s.task.loose
      in
      request s R_open
        (Protocol.Open_session
           {
             Protocol.op_db = s.task.sp.Spider_gen.sp_db;
             op_nlq = s.task.sp.Spider_gen.sp_nlq;
             op_tsq = tsq;
             op_literals = Some s.task.sp.Spider_gen.sp_literals;
             op_max_pops = None;
             op_max_candidates = None;
             op_time_budget_s = None;
           });
    done;
    List.iter
      (fun s ->
        if (not s.busy) && s.next_poll <= now && (s.phase = Running || s.phase = Refining) then begin
          s.next_poll <- infinity;
          request s R_poll (Protocol.Get_candidates (s.sid, None))
        end)
      !active;
    flush_out c;
    let next_event =
      List.fold_left
        (fun acc s -> if s.busy then acc else Float.min acc s.next_poll)
        (if !next_open < n then sessions.(!next_open).sched else infinity)
        !active
    in
    let timeout = Float.max 0.0 (Float.min 0.05 (next_event -. Util.now ())) in
    let want_write = Buffer.length c.out > c.out_pos in
    (match Unix.select [ c.fd ] (if want_write then [ c.fd ] else []) [] timeout with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    read_replies c on_reply
  done;
  Array.iter
    (fun s ->
      if s.phase <> Done && s.phase <> Failed then begin
        Util.attempt ledger;
        fail s "not finished by the run's deadline"
      end)
    sessions;
  {
    sessions;
    lags_ms = !lags;
    inflight = !inflight;
    open_rtt_ms = !open_rtt;
    poll_rtt_ms = !poll_rtt;
    refine_rtt_ms = !refine_rtt;
  }

let session_ms (t : traffic) =
  Array.to_list t.sessions
  |> List.filter (fun s -> s.phase = Done)
  |> List.map (fun s -> (s.finished_at -. s.sched) *. 1000.0)

let refine_ms (t : traffic) =
  Array.to_list t.sessions
  |> List.filter (fun s -> s.phase = Done && s.kind = Refine)
  |> List.map (fun s -> (s.refine_done -. s.refine_sent) *. 1000.0)

(* The arrival-rate ladder.  A rung passes when every session is
   admitted and finishes, the session p95 meets the latency limit, and
   the generator keeps to its schedule.  The main traffic is the first
   rung; each further rung is a fresh batch of sessions at the next rate
   of [ladder], climbed until one fails. *)
let rung_ok ledger (t : traffic) =
  ledger.Util.failed = 0
  && Util.tail (session_ms t) 0.95 <= latency_limit_ms
  && Util.tail t.lags_ms 0.99 <= lag_bound_ms

let run_ladder c ~seed ~tasks ~traced =
  let rung i r =
    let l = Util.ledger () in
    let t_begin = Util.now () +. 0.05 in
    let sessions =
      Array.of_list
        (schedule ~seed ~tasks ~t_begin ~rate:r ~n:rung_sessions
           ~first_idx:(1_000_000 * (i + 1)))
    in
    let span = float_of_int rung_sessions /. r in
    let t = drive c l ~traced sessions ~deadline:(t_begin +. span +. drain_grace) in
    let ok = rung_ok l t in
    let lat = session_ms t in
    ( ok,
      Printf.sprintf "ladder rung %g/s: session ms p50 %.1f p95 %.1f, inflight p50 %.0f max %.0f, %s"
        r (Util.median lat) (Util.tail lat 0.95) (Util.median t.inflight)
        (List.fold_left Float.max 0.0 t.inflight)
        (if ok then "passed" else "failed") )
  in
  let rec climb i best notes = function
    | [] -> (best, List.rev notes)
    | r :: rest ->
        let ok, note = rung i r in
        if ok then climb (i + 1) r (note :: notes) rest else (best, List.rev (note :: notes))
  in
  climb 0 rate [] ladder

(* --- the run ------------------------------------------------------------ *)

type setup = {
  split : Spider_gen.split;
  tasks : task array;
  sessions : (string * Duocore.Duoquest.session) list;  (** for the replay *)
  pid : int;
  c : conn;
  tsq_ms : float list;
}

type timing = {
  db_s : float;
  index_s : float;
  boot_s : float;  (** server spawn to first accepted connection *)
  total_s : float;
}

let is_prefix xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> x = y && go xs' ys'
    | _ :: _, [] -> false
  in
  go xs ys

let run ~seed ~seconds ~traced =
  let ledger = Util.ledger () in
  Util.ensure_out_dir ();
  let sock = Printf.sprintf "%s/duoserve-%d.sock" Util.out_dir (Unix.getpid ()) in
  (* set-up, several times: inputs, then server boot to first accepted
     connection.  One set-up is kept for the run; half of the others come
     before it and half after the traffic, so that the median samples the
     host's speed at two moments.  Their servers are shut down again
     and only their timings are kept, so their databases are garbage at
     once. *)
  let shutdown pid c =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        (* the server exits once drained *)
        reap_server ~timeout:10.0 pid)
      (fun () -> ignore (control c Protocol.Shutdown))
  in
  let setup_once ~last =
    Gc.compact ();
    let t0 = Util.now () in
    let split, tasks, db_s, tsq_ms = make_tasks ~seed (if last then ledger else Util.ledger ()) in
    let t1 = Util.now () in
    let sessions =
      List.map
        (fun (name, db) -> (name, Duocore.Duoquest.create_session db))
        split.Spider_gen.databases
    in
    let t2 = Util.now () in
    let pid = spawn_server ~sock in
    let fd =
      try connect ~pid ~sock ~deadline:(Util.now () +. 60.0)
      with e ->
        reap_server pid;
        raise e
    in
    let t3 = Util.now () in
    ( { split; tasks; sessions; pid; c = conn fd; tsq_ms },
      { db_s; index_s = t2 -. t1; boot_s = t3 -. t2; total_s = t3 -. t0 } )
  in
  let setup_timings k =
    List.init k (fun _ ->
        let b, t = setup_once ~last:false in
        shutdown b.pid b.c;
        t)
  in
  let before = setup_timings ((setup_reps - 1) / 2) in
  let { split; tasks; sessions = replay_sessions; pid; c; tsq_ms }, kept_timing =
    setup_once ~last:true
  in
  (* The solo replay of every distinct (task, kind) the traffic serves.
     Replay sessions last milliseconds, and the host's speed drifts over
     seconds (a repetition's summed wall time varied by up to 25% within
     one run), so the replay runs [replay_reps] times, half before the
     traffic and half after it: the speed figures take each session's
     fastest wall time, the layers (and spans) come from the last
     repetition, and every repetition must emit the same candidates. *)
  let n = max 1 (int_of_float (rate *. seconds)) in
  let combos =
    schedule ~seed ~tasks ~t_begin:0.0 ~rate ~n ~first_idx:0
    |> List.map (fun s -> (s.task.k, s.kind))
    |> List.sort_uniq compare
  in
  let jobs =
    List.map
      (fun (k, kind) ->
        let task = tasks.(k) in
        ( kind,
          task,
          {
            Synth.rid = Printf.sprintf "%d/%s" k (kind_name kind);
            session = List.assoc task.sp.Spider_gen.sp_db replay_sessions;
            nlq = task.sp.Spider_gen.sp_nlq;
            literals = task.sp.Spider_gen.sp_literals;
            tsq = (match kind with Nli -> None | Dual | Refine -> task.tight);
            gold = task.sp.Spider_gen.sp_gold;
          } ))
      combos
  in
  let replay_once () =
    Trace.reset ();
    List.filter_map
      (fun (kind, task, job) ->
        Util.attempt ledger;
        match Synth.run budget ~traced job with
        | r -> Some (kind, task, r)
        | exception e ->
            Util.fail ledger "replay %s raised %s" job.Synth.rid (Printexc.to_string e);
            None)
      jobs
  in
  let result =
    Fun.protect
      ~finally:(fun () -> reap_server pid)
      (fun () ->
        (* the server idles meanwhile *)
        let first_replays = List.init (replay_reps / 2) (fun _ -> replay_once ()) in
        (* the databases the server built must be the ones these tasks
           were generated for *)
        let served_split = Spider_gen.mini ~seed:db_seed ~n_dbs ~per_db:1 () in
        Util.attempt ledger;
        if
          Check.db_digest served_split.Spider_gen.databases
          <> Check.db_digest split.Spider_gen.databases
        then Util.fail ledger "generated databases differ from the server's";
        let names =
          match Option.bind (Json.member "dbs" (control c Protocol.List_dbs)) Json.get_list with
          | Some l -> List.filter_map Json.get_str l
          | None -> []
        in
        Util.attempt ledger;
        if names <> List.map fst split.Spider_gen.databases then
          Util.fail ledger "server database names differ";
        let t_begin = Util.now () +. 0.05 in
        let sessions =
          Array.of_list (schedule ~seed ~tasks ~t_begin ~rate ~n ~first_idx:0)
        in
        let deadline = t_begin +. (float_of_int n /. rate) +. drain_grace in
        let traffic = drive c ledger ~traced sessions ~deadline in
        let stats = control c Protocol.Stats in
        let peak = peak_rss_mb pid in
        let max_rate, ladder_notes =
          if not traced then (0.0, [])
          else if rung_ok ledger traffic then run_ladder c ~seed ~tasks ~traced
          else (0.0, [])
        in
        shutdown pid c;
        (first_replays, traffic, stats, peak, max_rate, ladder_notes))
  in
  let first_replays, traffic, stats, peak_mb, max_rate, ladder_notes = result in
  let lag_p99 = Util.tail traffic.lags_ms 0.99 in
  Util.attempt ledger;
  if lag_p99 > lag_bound_ms then
    Util.fail ledger "generator lag p99 %.1f ms exceeds %.0f ms: run invalid" lag_p99 lag_bound_ms;
  let served = Array.to_list traffic.sessions |> List.filter (fun s -> s.phase = Done) in
  let reps =
    before @ (kept_timing :: setup_timings (setup_reps - 1 - ((setup_reps - 1) / 2)))
  in
  let setup_s = Util.median (List.map (fun b -> b.total_s) reps) in
  let all_replays =
    first_replays @ List.init (replay_reps - (replay_reps / 2)) (fun _ -> replay_once ())
  in
  let replays = List.hd all_replays in
  let last = List.nth all_replays (replay_reps - 1) in
  let candidates_of rs = List.map (fun (_, _, r) -> Synth.candidates r) rs in
  if List.exists (fun rs -> candidates_of rs <> candidates_of replays) all_replays then begin
    Util.attempt ledger;
    Util.fail ledger "replay repetitions emitted different candidates"
  end;
  let timed (r : Synth.run) =
    let ws =
      List.concat_map
        (List.filter_map (fun (_, _, (x : Synth.run)) ->
             if x.Synth.job.Synth.rid = r.Synth.job.Synth.rid then Some x.Synth.wall else None))
        all_replays
    in
    { r with Synth.wall = List.fold_left Float.min infinity ws }
  in
  let digest_buf = Buffer.create 4096 in
  List.iter
    (fun (kind, task, (r : Synth.run)) ->
      let solo = List.map (fun (sql, _, _) -> sql) (Synth.candidates r) in
      Check.digest_add digest_buf ~rid:r.Synth.job.Synth.rid (Synth.candidates r);
      let mine = List.filter (fun s -> s.task.k = task.k && s.kind = kind) served in
      List.iter
        (fun s ->
          Util.attempt ledger;
          let ok = match kind with Refine -> is_prefix solo s.sqls | Nli | Dual -> solo = s.sqls in
          if not ok then
            Util.fail ledger "session %d (%s): served candidates differ from the solo run" s.idx
              r.Synth.job.Synth.rid)
        mine;
      (* every candidate served under a sketch satisfies it *)
      match (kind, task.tight, mine) with
      | (Dual | Refine), Some tsq, s :: _ ->
          let schema = Duodb.Database.schema task.db in
          List.iter
            (fun sql ->
              Util.attempt ledger;
              match Duosql.Parser.query ~schema sql with
              | Error e -> Util.fail ledger "served SQL does not parse (%s): %s" e sql
              | Ok q -> (
                  match Check.violation tsq task.db q with
                  | None -> ()
                  | Some why -> Util.fail ledger "served %s: %s" sql why))
            s.sqls
      | _ -> ())
    replays;
  (* gold quality over served sessions, from the served SQL *)
  let gold_rank s =
    let rec find i = function
      | [] -> None
      | sql :: rest -> if is_gold s.task sql then Some i else find (i + 1) rest
    in
    find 1 s.sqls
  in
  let ranks = List.map gold_rank served in
  let n_served = List.length served in
  let fl = float_of_int in
  let frac p = Util.ratio (fl (List.length (List.filter p ranks))) (fl n_served) in
  let runs = List.map (fun (_, _, r) -> r) replays in
  let last_runs = List.map (fun (_, _, r) -> r) last in
  let lat = session_ms traffic in
  let since_open f =
    List.filter_map (fun s -> if Float.is_nan (f s) then None else Some (f s -. s.sched)) served
  in
  let firsts = since_open (fun s -> s.first_at) and golds = since_open (fun s -> s.gold_at) in
  let end_to_end =
    Util.
      [
        metric ~n:setup_reps "setup_s" "s" setup_s;
        metric ~n:n_served "gold_top1_frac" "fraction" (frac (fun r -> r = Some 1));
        metric ~n:n_served "gold_found_frac" "fraction" (frac (fun r -> r <> None));
        metric ~n:(List.length lat) "session_ms_gmean" "ms" (gmean lat);
        metric "peak_heap_mb" "MB" peak_mb;
        metric ~n:(List.length firsts) "time_to_first_s_gmean" "s" (gmean firsts);
        metric ~n:(List.length golds) "time_to_gold_s_gmean" "s" (gmean golds);
      ]
    @ Synth.throughput (List.map timed runs)
  in
  let stat f = Option.value ~default:0.0 (Option.bind (Json.member f stats) Json.get_num) in
  let duopar f =
    Option.value ~default:0.0
      (Option.bind (Json.member "duopar" stats) (fun d -> Option.bind (Json.member f d) Json.get_num))
  in
  let refine = refine_ms traffic in
  let kb = 1000.0 in
  let serve_layers =
    Util.
      [
        metric ~n:(List.length traffic.open_rtt_ms) "serve.open_rtt_ms_p50" "ms" (median traffic.open_rtt_ms);
        metric ~n:(List.length traffic.poll_rtt_ms) "serve.poll_rtt_ms_p50" "ms" (median traffic.poll_rtt_ms);
        metric ~n:(List.length traffic.refine_rtt_ms) "serve.refine_rtt_ms_p50" "ms"
          (median traffic.refine_rtt_ms);
        metric "serve.slices_per_session" "count" (ratio (stat "slices") (stat "opened"));
        metric "serve.rejected_opens" "count" (stat "rejected");
        metric "serve.refine_warm_frac" "fraction" (ratio (stat "rebased") (stat "refined"));
        metric ~n:(List.length traffic.inflight) "serve.inflight_p50" "count" (median traffic.inflight);
        metric ~n:(List.length lat) "serve.session_ms_p50" "ms" (median lat);
        metric ~n:(List.length lat) "serve.session_ms_p95" "ms" (tail lat 0.95);
        metric ~n:(List.length refine) "serve.refine_ms_p50" "ms" (median refine);
        metric ~n:(List.length refine) "serve.refine_ms_p90" "ms" (tail refine 0.90);
        metric "serve.max_rate_sps" "sessions/s" max_rate;
        metric ~n:(List.length traffic.lags_ms) "serve.lag_ms_p99" "ms" lag_p99;
        metric "codec.decode_us_per_kb" "us/KB"
          (ratio (c.decode_s *. 1e6) (fl c.decoded_bytes /. kb));
        metric "codec.encode_us_per_req" "us" (ratio (c.encode_s *. 1e6) (fl c.encoded));
        metric "codec.reply_kb_per_poll" "KB" (ratio (fl c.cand_reply_bytes /. kb) (fl c.cand_replies));
        metric "codec.lossy_sketches" "count"
          (fl (Array.fold_left (fun n t -> if t.lossy then n + 1 else n) 0 tasks));
        metric "duopar.domains" "count" (duopar "domains");
        metric "duopar.spec_tasks" "count" (duopar "spec_tasks");
        metric "duopar.commit_rate" "fraction" (duopar "commit_rate");
      ]
  in
  let layers =
    if not traced then []
    else
      let med f = Util.median (List.map f reps) in
      Util.
        [
          metric ~n:setup_reps "setup.db_s" "s" (med (fun b -> b.db_s));
          metric ~n:setup_reps "setup.index_s" "s" (med (fun b -> b.index_s));
          metric ~n:(List.length tsq_ms) "setup.tsq_ms_p50" "ms" (median tsq_ms);
          metric ~n:setup_reps "setup.boot_s" "s" (med (fun b -> b.boot_s));
          Synth.replay_layer last_runs;
        ]
      @ Synth.layers last_runs
      @ Synth.gc_layers ~top_heap_words:(Gc.quick_stat ()).Gc.top_heap_words
      @ Synth.self_layers () @ serve_layers
  in
  let notes =
    [
      Printf.sprintf
        "traffic: %d sessions at %.0f/s over %d databases x %d tasks; %d done; session ms p50 %.1f \
         p95 %.1f; refine ms p50 %.1f; inflight at open p50 %.0f mean %.2f; lag p99 %.2f ms; \
         server peak RSS %.1f MB"
        (Array.length traffic.sessions) rate n_dbs per_db n_served (Util.median lat)
        (Util.tail lat 0.95) (Util.median refine) (Util.median traffic.inflight)
        (Util.ratio (Util.sum traffic.inflight) (fl (List.length traffic.inflight)))
        lag_p99 peak_mb;
      Printf.sprintf "replay: %d distinct (task, kind) runs, %d pops; summed wall per repetition %s s"
        (List.length replays)
        (List.fold_left (fun n (r : Synth.run) -> n + r.Synth.outcome.E.out_pops) 0 runs)
        (String.concat ", "
           (List.map
              (fun rs -> Printf.sprintf "%.3f" (Util.sum (List.map (fun (_, _, (r : Synth.run)) -> r.Synth.wall) rs)))
              all_replays));
      Printf.sprintf
        "known defect (lib/serve/json.ml prints numbers with twelve significant digits): \
         Protocol.request_to_line changes the sketch of %d of %d tasks; %d of %d sessions \
         opened with one, and %d request lines were re-printed exact before sending"
        (Array.fold_left (fun n t -> if t.lossy then n + 1 else n) 0 tasks)
        (Array.length tasks)
        (Array.fold_left
           (fun n s -> if s.kind <> Nli && s.task.lossy then n + 1 else n)
           0 traffic.sessions)
        (Array.length traffic.sessions) c.reprinted;
    ]
    @ (if traced then ladder_notes @ [ Printf.sprintf "ladder: max rate %g sessions/s" max_rate ]
       else [])
  in
  { Util.end_to_end; layers; ledger; digest = Check.digest digest_buf; notes }
