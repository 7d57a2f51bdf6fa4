(* Shared helpers: clocks, order statistics, metric records, the host
   record and the result line. *)

module Json = Duoserve.Json

let now = Unix.gettimeofday

let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

(* Words allocated so far.  [Gc.quick_stat]'s minor count only moves at
   minor collections, so the minor part comes from [Gc.minor_words],
   which is exact; the major part (direct major allocations) from the
   stat [g]. *)
let allocated_words (g : Gc.stat) = Gc.minor_words () +. g.Gc.major_words -. g.Gc.promoted_words

(* --- order statistics ---------------------------------------------- *)

(* Linear-interpolated quantile, q in [0, 1]. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  match a with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* A tail percentile is only reported at the highest level that leaves at
   least ten samples beyond it: [q] is capped at [1 - 10/n], and with
   twenty samples or fewer the median is all there is. *)
let tail xs q =
  let n = float_of_int (List.length xs) in
  quantile xs (Float.max 0.5 (Float.min q (1.0 -. (10.0 /. n))))

(* The MAS tasks' times span three orders of magnitude (2 ms to 4 s), so
   the median of fourteen falls in gaps between tasks and jumps as the
   seed changes a sketch; the geometric mean weighs each task equally. *)
let gmean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> nan
  | ys ->
      exp (List.fold_left (fun acc y -> acc +. log y) 0.0 ys
           /. float_of_int (List.length ys))

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- metrics -------------------------------------------------------- *)

(* name, value, unit, sample count (0 when the value is a count, not a
   statistic over samples) *)
type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let metric ?(n = 0) m_name m_unit m_value = { m_name; m_value; m_unit; m_n = n }

(* A number with all its digits: JSON's printer keeps twelve. *)
let num_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let metric_to_json m =
  Json.Obj
    [
      ("name", Json.Str m.m_name);
      (* exact: hex float *)
      ("value", Json.Str (Printf.sprintf "%h" m.m_value));
      ("unit", Json.Str m.m_unit);
      ("n", Json.Num (float_of_int m.m_n));
    ]

let metric_of_json j =
  let str f = Option.bind (Json.member f j) Json.get_str in
  let num f = Option.bind (Json.member f j) Json.get_num in
  match (str "name", Option.bind (str "value") float_of_string_opt, str "unit", num "n") with
  | Some m_name, Some m_value, Some m_unit, Some n ->
      Some { m_name; m_value; m_unit; m_n = int_of_float n }
  | _ -> None

let print_metric m =
  if m.m_n > 0 then
    Printf.printf "  %-32s %14.6g %-8s (n=%d)\n" m.m_name m.m_value m.m_unit m.m_n
  else Printf.printf "  %-32s %14.6g %s\n" m.m_name m.m_value m.m_unit

(* --- failure accounting --------------------------------------------- *)

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let ledger () = { attempted = 0; failed = 0; problems = [] }
let attempt l = l.attempted <- l.attempted + 1

let fail l fmt =
  Printf.ksprintf
    (fun msg ->
      l.failed <- l.failed + 1;
      l.problems <- msg :: l.problems)
    fmt

(* What one workload run hands back: end-to-end metrics, per-layer
   metrics (traced runs only), the operation ledger, the candidate digest
   and human-readable notes. *)
type result = {
  end_to_end : metric list;
  layers : metric list;
  ledger : ledger;
  digest : string;
  notes : string list;
}

(* --- host record ---------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      (* read to end of file: /proc files report no length *)
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents buf)

(* The commit, when the checkout still carries its .git directory;
   benchmark checkouts are plain file trees, so "unknown" is normal. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let r = String.trim (String.sub head (i + 1) (String.length head - i - 1)) in
          match read_file (Filename.concat ".git" r) with
          | Some c -> String.trim c
          | None -> "unknown")
      | _ -> head)

let host_line ~domains =
  Printf.sprintf "host: nproc=%d ocaml=%s effective_domains=%d commit=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version domains (git_commit ())

(* --- scratch directory inside the checkout -------------------------- *)

let out_dir = ".duoperf"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755
