open Duosql.Ast

type phase =
  | P_keywords
  | P_num_proj
  | P_proj_target of int
  | P_proj_agg of int
  | P_where_num
  | P_where_col of int
  | P_where_op of int
  | P_where_conn
  | P_group_col
  | P_having_presence
  | P_having_pred
  | P_order_target
  | P_order_dir
  | P_limit
  | P_done
  | P_joinpath of phase

type proj_slot = {
  pj_target : Duoguide.Model.col_target;
  pj_agg : Duosql.Ast.agg option option;
}

type t = {
  phase : phase;
  kw : Duoguide.Model.kw_set;
  nproj : int;
  projs : proj_slot list;
  where_n : int;
  where_preds : pred list;
  where_pending : Duodb.Schema.column option;
  conn : connective;
  group_col : col_ref option;
  having_pred : pred option;
  order_item : (agg option * col_ref option) option;
  order_dir : dir;
  limit : int option;
  from : from_clause option;
  confidence : float;
  depth : int;
}

let root =
  {
    phase = P_keywords;
    kw = { Duoguide.Model.kw_where = false; kw_group = false; kw_order = false };
    nproj = 0;
    projs = [];
    where_n = 0;
    where_preds = [];
    where_pending = None;
    conn = And;
    group_col = None;
    having_pred = None;
    order_item = None;
    order_dir = Asc;
    limit = None;
    from = None;
    confidence = 1.0;
    depth = 0;
  }

let is_complete t = t.phase = P_done

let target_col = function
  | Duoguide.Model.Target_column c -> Some c
  | Duoguide.Model.Target_count_star -> None

let col_ref_of_column c =
  col c.Duodb.Schema.col_table c.Duodb.Schema.col_name

let proj_of_slot slot =
  match slot.pj_target, slot.pj_agg with
  | Duoguide.Model.Target_count_star, _ -> Some count_star
  | Duoguide.Model.Target_column c, Some agg ->
      Some { p_agg = agg; p_col = Some (col_ref_of_column c); p_distinct = false }
  | Duoguide.Model.Target_column _, None -> None

let to_query t =
  if not (is_complete t) then None
  else
    match t.from with
    | None -> None
    | Some from ->
        let projs = List.filter_map proj_of_slot t.projs in
        if List.length projs <> List.length t.projs then None
        else
          let where =
            match t.where_preds with
            | [] -> None
            | preds -> Some { c_preds = preds; c_conn = t.conn }
          in
          let having =
            Option.map (fun p -> { c_preds = [ p ]; c_conn = And }) t.having_pred
          in
          let order_by =
            match t.order_item with
            | None -> []
            | Some (agg, col) -> [ { o_agg = agg; o_col = col; o_dir = t.order_dir } ]
          in
          Some
            {
              q_distinct = false;
              q_select = projs;
              q_from = from;
              q_where = where;
              q_group_by = Option.to_list t.group_col;
              q_having = having;
              q_order_by = order_by;
              q_limit = t.limit;
            }

let referenced_tables t =
  let cols =
    List.filter_map (fun s -> target_col s.pj_target) t.projs
    |> List.map col_ref_of_column
  in
  let where_cols =
    List.filter_map (fun p -> p.pr_col) t.where_preds
    @ (match t.where_pending with
      | Some c -> [ col_ref_of_column c ]
      | None -> [])
  in
  let having_cols =
    Option.fold ~none:[] ~some:(fun p -> Option.to_list p.pr_col) t.having_pred
  in
  let order_cols =
    Option.fold ~none:[] ~some:(fun (_, c) -> Option.to_list c) t.order_item
  in
  let all = cols @ where_cols @ Option.to_list t.group_col @ having_cols @ order_cols in
  List.sort_uniq String.compare (List.map (fun c -> c.cr_table) all)

let decided_projections t =
  List.map (fun s -> (s.pj_agg, target_col s.pj_target)) t.projs

let pred_literals p =
  match p.pr_rhs with
  | Cmp (_, v) -> [ v ]
  | Between (lo, hi) -> [ lo; hi ]

let used_literals t =
  List.concat_map pred_literals (t.where_preds @ Option.to_list t.having_pred)

let slot_str s =
  match proj_of_slot s with
  | Some p -> Duosql.Pretty.proj p
  | None -> (
      match target_col s.pj_target with
      | Some c -> Printf.sprintf "?(%s.%s)" c.Duodb.Schema.col_table c.Duodb.Schema.col_name
      | None -> "?")

(* Whether [to_string] shows the WHERE / GROUP BY / ORDER BY clauses
   that the keywords select: not before the keywords are decided. *)
let clauses_shown t =
  match t.phase with
  | P_keywords -> false
  | P_num_proj | P_proj_target _ | P_proj_agg _ | P_where_num | P_where_col _
  | P_where_op _ | P_where_conn | P_group_col | P_having_presence
  | P_having_pred | P_order_target | P_order_dir | P_limit | P_done
  | P_joinpath _ ->
      true

let to_string t =
  let select =
    match t.projs with
    | [] -> "?"
    | slots ->
        let holes = max 0 (t.nproj - List.length slots) in
        String.concat ", " (List.map slot_str slots @ List.init holes (fun _ -> "?"))
  in
  let from =
    match t.from with
    | Some f -> Duosql.Pretty.from_clause f
    | None -> "?"
  in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "SELECT %s FROM %s" select from);
  if t.kw.Duoguide.Model.kw_where && clauses_shown t then begin
    let preds = List.map Duosql.Pretty.pred t.where_preds in
    let holes = max 0 (t.where_n - List.length preds) in
    let conn = match t.conn with And -> " AND " | Or -> " OR " in
    Buffer.add_string buf
      (" WHERE " ^ String.concat conn (preds @ List.init holes (fun _ -> "?")))
  end;
  if t.kw.Duoguide.Model.kw_group && clauses_shown t then
    Buffer.add_string buf
      (match t.group_col with
      | Some c -> " GROUP BY " ^ Duosql.Pretty.col_ref c
      | None -> " GROUP BY ?");
  Option.iter (fun p -> Buffer.add_string buf (" HAVING " ^ Duosql.Pretty.pred p)) t.having_pred;
  if t.kw.Duoguide.Model.kw_order && clauses_shown t then
    Buffer.add_string buf
      (match t.order_item with
      | Some (agg, c) ->
          " ORDER BY "
          ^ Duosql.Pretty.order_item { o_agg = agg; o_col = c; o_dir = t.order_dir }
      | None -> " ORDER BY ?");
  Option.iter (fun n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n)) t.limit;
  Buffer.contents buf

let rec phase_index = function
  | P_joinpath inner -> 1000 + phase_index inner
  | P_keywords -> 0
  | P_num_proj -> 1
  | P_proj_target i -> 100 + i
  | P_proj_agg i -> 200 + i
  | P_where_num -> 2
  | P_where_col i -> 300 + i
  | P_where_op i -> 400 + i
  | P_where_conn -> 3
  | P_group_col -> 4
  | P_having_presence -> 5
  | P_having_pred -> 6
  | P_order_target -> 7
  | P_order_dir -> 8
  | P_limit -> 9
  | P_done -> 10

let key t =
  Printf.sprintf "%d|%d|%d|%s|%b%b%b|%s|%s"
    (phase_index t.phase) t.nproj t.where_n
    (match t.conn with And -> "&" | Or -> "|")
    t.kw.Duoguide.Model.kw_where t.kw.Duoguide.Model.kw_group
    t.kw.Duoguide.Model.kw_order
    (match t.where_pending with
    | Some c -> c.Duodb.Schema.col_table ^ "." ^ c.Duodb.Schema.col_name
    | None -> "")
    (to_string t)

(* Whether the decided predicate list and connective can still change.
   Mirrors [Verify.where_done]; duplicated because the dependency runs
   the other way. *)
let rec where_settled = function
  | P_joinpath inner -> where_settled inner
  | P_keywords | P_num_proj | P_proj_target _ | P_proj_agg _ | P_where_num
  | P_where_col _ | P_where_op _ | P_where_conn ->
      false
  | P_group_col | P_having_presence | P_having_pred | P_order_target
  | P_order_dir | P_limit | P_done ->
      true

(* Interval-folding the conjuncts is only meaning-preserving when the
   predicate set is conjunctive and settled; otherwise fall back to
   sorting, which is sound under either connective (commutativity and
   idempotence). *)
let fold_ok t =
  match t.where_preds with
  | [] | [ _ ] -> true
  | _ :: _ :: _ -> where_settled t.phase && t.conn = And

let canonical_where ~fold preds =
  if fold then Duolint.Duosem.canonical_conjuncts preds
  else Duolint.Duosem.sorted_preds preds

let canonical_having = function
  | None -> None
  | Some p as having -> (
      match Duolint.Duosem.canonical_conjuncts [ p ] with
      | [ p' ] -> Some p'
      | [] | _ :: _ :: _ -> having)

let canonical_key t =
  (* FROM and the join path stay verbatim: their order can steer
     executor row order, which a sorted sketch observes. *)
  let where_preds = canonical_where ~fold:(fold_ok t) t.where_preds in
  let having_pred = canonical_having t.having_pred in
  (* Folding can erase which tagged literals the state consumed (x > 3
     AND x > 5 folds like x > 4 AND x > 5), and the complete-stage
     literal check observes exactly that — so the key carries the used
     literal multiset verbatim. *)
  let lits =
    used_literals t
    |> List.map Duodb.Value.to_sql
    |> List.sort String.compare
    |> String.concat ","
  in
  Printf.sprintf "%d|%d|%d|%s|%b%b%b|%s|%s|%s"
    (phase_index t.phase) t.nproj t.where_n
    (match t.conn with And -> "&" | Or -> "|")
    t.kw.Duoguide.Model.kw_where t.kw.Duoguide.Model.kw_group
    t.kw.Duoguide.Model.kw_order
    (match t.where_pending with
    | Some c -> c.Duodb.Schema.col_table ^ "." ^ c.Duodb.Schema.col_name
    | None -> "")
    lits
    (to_string { t with where_preds; having_pred })

(* --- canonical hash ---------------------------------------------------
   [canonical_hash] is a function of [canonical_key] computed without
   rendering it: every field is hashed through what the key renders of
   it.  Predicates, projection slots and the join path are hashed by
   their [Pretty] rendering (so [Int 5] and [Float 5.0], or floats equal
   under [%g], hash alike), literals by [Value.to_sql] as an unordered
   multiset, columns by their table and column names, [order_dir] only
   beside an [order_item], clauses only where [to_string] shows them;
   [confidence] and [depth] never.  Canonicalizing and rendering the
   predicate lists, the projections and the join path are the costly
   parts: a [hash_memo] keeps each one's hash for the last list (or
   option) it saw, compared physically — children share these with
   their parent, so they are recomputed only where a decision changed
   them. *)

(* 63-bit FNV-style step; the visited set rehashes the final value. *)
let mix h x = (h lxor x) * 0x100000001b3

(* Literals add up, so equal multisets hash alike in any order; the
   xorshift keeps different multisets from summing alike. *)
let literal_hash v =
  let x = String.hash (Duodb.Value.to_sql v) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let literals_hash preds =
  List.fold_left
    (fun acc p ->
      List.fold_left (fun acc v -> acc + literal_hash v) acc (pred_literals p))
    0 preds

let preds_hash preds =
  List.fold_left (fun h p -> mix h (String.hash (Duosql.Pretty.pred p))) 1 preds

let projs_hash projs =
  List.fold_left (fun h s -> mix h (String.hash (slot_str s))) 2 projs

let from_hash = function
  | None -> 3
  | Some f -> String.hash (Duosql.Pretty.from_clause f)

let having_hash having =
  match canonical_having having with
  | None -> 4
  | Some p -> String.hash (Duosql.Pretty.pred p)

let names_hash table column = mix (String.hash table) (String.hash column)
let col_ref_hash c = names_hash c.cr_table c.cr_col

let agg_hash = function
  | None -> 0
  | Some Count -> 1
  | Some Sum -> 2
  | Some Avg -> 3
  | Some Min -> 4
  | Some Max -> 5

type hash_memo = {
  mutable hm_where : pred list;
  mutable hm_fold : bool;
  mutable hm_where_h : int;  (* canonical WHERE list, as rendered *)
  mutable hm_where_lits : int;
  mutable hm_having : pred option;
  mutable hm_having_h : int;
  mutable hm_having_lits : int;
  mutable hm_projs : proj_slot list;
  mutable hm_projs_h : int;
  mutable hm_from : from_clause option;
  mutable hm_from_h : int;
}

let hash_memo () =
  {
    hm_where = [];
    hm_fold = true;
    hm_where_h = preds_hash [];
    hm_where_lits = 0;
    hm_having = None;
    hm_having_h = having_hash None;
    hm_having_lits = 0;
    hm_projs = [];
    hm_projs_h = projs_hash [];
    hm_from = None;
    hm_from_h = from_hash None;
  }

let canonical_hash m t =
  let fold = fold_ok t in
  if not (t.where_preds == m.hm_where && Bool.equal fold m.hm_fold) then begin
    m.hm_where <- t.where_preds;
    m.hm_fold <- fold;
    m.hm_where_h <- preds_hash (canonical_where ~fold t.where_preds);
    m.hm_where_lits <- literals_hash t.where_preds
  end;
  if t.having_pred != m.hm_having then begin
    m.hm_having <- t.having_pred;
    m.hm_having_h <- having_hash t.having_pred;
    m.hm_having_lits <- literals_hash (Option.to_list t.having_pred)
  end;
  if t.projs != m.hm_projs then begin
    m.hm_projs <- t.projs;
    m.hm_projs_h <- projs_hash t.projs
  end;
  if t.from != m.hm_from then begin
    m.hm_from <- t.from;
    m.hm_from_h <- from_hash t.from
  end;
  let kw = t.kw and shown = clauses_shown t in
  let h = mix (phase_index t.phase) t.nproj in
  let h = mix h t.where_n in
  let h = mix h (match t.conn with And -> 0 | Or -> 1) in
  let h =
    mix h
      (Bool.to_int kw.Duoguide.Model.kw_where
      lor (Bool.to_int kw.Duoguide.Model.kw_group lsl 1)
      lor (Bool.to_int kw.Duoguide.Model.kw_order lsl 2))
  in
  let h =
    mix h
      (match t.where_pending with
      | None -> 0
      | Some c -> names_hash c.Duodb.Schema.col_table c.Duodb.Schema.col_name)
  in
  let h = mix h (m.hm_where_lits + m.hm_having_lits) in
  let h = mix h m.hm_projs_h in
  let h = mix h m.hm_from_h in
  let h = if kw.Duoguide.Model.kw_where && shown then mix h m.hm_where_h else h in
  let h =
    if kw.Duoguide.Model.kw_group && shown then
      mix h (match t.group_col with None -> 0 | Some c -> col_ref_hash c)
    else h
  in
  let h = mix h m.hm_having_h in
  let h =
    if kw.Duoguide.Model.kw_order && shown then
      match t.order_item with
      | None -> mix h 0
      | Some (agg, c) ->
          let h = mix h (agg_hash agg) in
          let h = mix h (match c with None -> 0 | Some c -> col_ref_hash c) in
          mix h (match t.order_dir with Asc -> 1 | Desc -> 2)
    else h
  in
  mix h (match t.limit with None -> -1 | Some n -> n)

let join_length t =
  match t.from with
  | None -> 0
  | Some f -> List.length f.f_joins

let compare_priority (a, seq_a) (b, seq_b) =
  let c = Float.compare b.confidence a.confidence in
  if c <> 0 then c
  else
    let c = Int.compare (join_length a) (join_length b) in
    if c <> 0 then c else Int.compare seq_a seq_b
