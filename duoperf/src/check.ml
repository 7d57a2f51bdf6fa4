(* Output checks that share no code with the synthesizer: every candidate
   emitted under a sketch is re-executed by the naive reference
   interpreter and checked against the sketch per Definition 2.4. *)

module Tsq = Duocore.Tsq
module Value = Duodb.Value

let cell_ok cell v =
  match (cell : Tsq.cell) with
  | Tsq.Any -> true
  | Tsq.Exact x -> Value.compare x v = 0
  | Tsq.Range (lo, hi) ->
      (not (Value.is_null v)) && Value.compare lo v <= 0 && Value.compare v hi <= 0

let tuple_ok tuple row =
  List.length tuple = Array.length row && List.for_all2 cell_ok tuple (Array.to_list row)

(* Each example tuple matched by a distinct result row (backtracking
   bipartite matching; sketches carry at most a handful of tuples). *)
let distinct_match tuples rows =
  let rows = Array.of_list rows in
  let used = Array.make (Array.length rows) false in
  let rec go = function
    | [] -> true
    | t :: rest ->
        let found = ref false in
        Array.iteri
          (fun i row ->
            if (not !found) && (not used.(i)) && tuple_ok t row then begin
              used.(i) <- true;
              if go rest then found := true else used.(i) <- false
            end)
          rows;
        !found
  in
  go tuples

(* Example tuples matched at strictly increasing row positions, in
   example order. *)
let ordered_match tuples rows =
  let rec go tuples rows =
    match (tuples, rows) with
    | [], _ -> true
    | _, [] -> false
    | t :: trest, r :: rrest -> if tuple_ok t r then go trest rrest else go tuples rrest
  in
  go tuples rows

(* [None] when [q] satisfies [tsq] on [db]; otherwise the reason.  The
   sketches checked here are Full-detail ones: every tuple required, no
   negatives. *)
let violation (tsq : Tsq.t) db (q : Duosql.Ast.query) =
  match Duocheck.Reference.run db q with
  | Error e -> Some ("reference execution failed: " ^ e)
  | Ok res ->
      let cols = res.Duoengine.Executor.res_cols in
      let rows = res.Duoengine.Executor.res_rows in
      let types_ok =
        match tsq.Tsq.types with
        | None -> true
        | Some tys ->
            List.length tys = List.length cols
            && List.for_all2 (fun ty (_, ty') -> Duodb.Datatype.equal ty ty') tys cols
      in
      let matched =
        if tsq.Tsq.sorted && List.length tsq.Tsq.tuples >= 2 then
          ordered_match tsq.Tsq.tuples rows
        else distinct_match tsq.Tsq.tuples rows
      in
      if not types_ok then Some "output types differ from the sketch"
      else if not matched then Some "example tuples not matched"
      else if tsq.Tsq.sorted && q.Duosql.Ast.q_order_by = [] then
        Some "sketch is sorted but the query has no ORDER BY"
      else
        (* limit k obliges a LIMIT clause of at most k (Example 3.3), and
           limit 0 forbids one *)
        match (tsq.Tsq.limit, q.Duosql.Ast.q_limit) with
        | 0, Some _ -> Some "the sketch has no limit but the query has a LIMIT clause"
        | k, None when k > 0 -> Some "the sketch has a limit but the query has no LIMIT clause"
        | k, Some n when n > k -> Some "the query's LIMIT exceeds the sketch's limit"
        | k, _ when k > 0 && List.length rows > k -> Some "more rows than the sketch's limit"
        | _ -> None

(* Candidate digest: SQL text, exact confidence and emission pop count
   of every candidate, in order.  Equal digests mean bit-identical
   synthesis output. *)
let digest_add buf ~rid (cands : (string * float * int) list) =
  Buffer.add_string buf rid;
  List.iter
    (fun (sql, conf, pops) -> Printf.bprintf buf "|%s|%h|%d" sql conf pops)
    cands;
  Buffer.add_char buf '\n'

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* Database contents digest: schema names, then every row of every
   table in storage order. *)
let db_digest (dbs : (string * Duodb.Database.t) list) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, db) ->
      Buffer.add_string buf name;
      List.iter
        (fun (t : Duodb.Schema.table) ->
          Buffer.add_string buf t.Duodb.Schema.tbl_name;
          Duodb.Table.iter
            (fun row ->
              Array.iter
                (fun v ->
                  Buffer.add_string buf (Value.to_sql v);
                  Buffer.add_char buf ',')
                row;
              Buffer.add_char buf '\n')
            (Duodb.Database.table_exn db t.Duodb.Schema.tbl_name))
        (Duodb.Database.schema db).Duodb.Schema.tables)
    dbs;
  Digest.to_hex (Digest.string (Buffer.contents buf))
