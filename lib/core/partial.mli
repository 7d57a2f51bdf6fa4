(** Partial queries (Definition 3.1) as enumeration states.

    A partial query is a SQL query in which elements may still be
    placeholders.  We represent it as a builder record plus a cursor
    ([phase]) naming the next inference decision, mirroring SyntaxSQLNet's
    fixed module execution order (Section 3.3.1): clause keywords, then the
    SELECT list (width, targets, aggregates), then WHERE (count, column,
    operator+value, connective), then GROUP BY / HAVING, then
    ORDER BY / direction / LIMIT.

    Each state also carries its candidate join path (Section 3.3.4) — all
    verification probes execute against it — and its confidence score, the
    product of the softmax scores of the decisions that produced it
    (Section 3.3.3). *)

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
      (** decide the join path (Section 3.3.4), then continue with the
          wrapped phase; deferring this keeps column decisions and join
          decisions from multiplying into one huge expansion *)

(** A decided projection slot. [pj_agg = None] means the aggregate decision
    is still pending; [Some a] records the decision ([Some (Some Count)]
    etc., [Some None] = plain column). *)
type proj_slot = {
  pj_target : Duoguide.Model.col_target;
  pj_agg : Duosql.Ast.agg option option;
}

type t = {
  phase : phase;
  kw : Duoguide.Model.kw_set;  (** meaningful once past [P_keywords] *)
  nproj : int;
  projs : proj_slot list;  (** decided prefix, in SELECT order *)
  where_n : int;
  where_preds : Duosql.Ast.pred list;  (** decided, in order *)
  where_pending : Duodb.Schema.column option;
      (** column chosen for the next predicate, operator/value pending *)
  conn : Duosql.Ast.connective;
  group_col : Duosql.Ast.col_ref option;
  having_pred : Duosql.Ast.pred option;
  order_item : (Duosql.Ast.agg option * Duosql.Ast.col_ref option) option;
  order_dir : Duosql.Ast.dir;
  limit : int option;
  from : Duosql.Ast.from_clause option;
      (** candidate join path; [None] until a column is referenced *)
  confidence : float;
  depth : int;  (** number of inference decisions made *)
}

(** The root state: no decisions made, confidence 1 (Algorithm 1, line 2). *)
val root : t

val is_complete : t -> bool

(** The complete {!Duosql.Ast.query} once [phase = P_done]; [None]
    otherwise or when the state lacks a join path. *)
val to_query : t -> Duosql.Ast.query option

(** Tables referenced by decided columns (outside the FROM clause). *)
val referenced_tables : t -> string list

(** The column of a projection target, if any. *)
val target_col : Duoguide.Model.col_target -> Duodb.Schema.column option

(** Decided projections as [(agg decision, column)] pairs, for modules that
    need the current SELECT list. *)
val decided_projections :
  t -> (Duosql.Ast.agg option option * Duodb.Schema.column option) list

(** Literals already used in decided predicates. *)
val used_literals : t -> Duodb.Value.t list

(** Render the partial query for display, with [?] placeholders. *)
val to_string : t -> string

(** Canonical identity of a state's decided content (phase, decisions and
    join path; not confidence).  States produced by different join-fork
    orders can coincide.  The reference identity for the soundness
    checker; the enumerator dedupes on the coarser {!canonical_key}. *)
val key : t -> string

(** Like {!key}, but with WHERE/HAVING conjuncts put into Duosem normal
    form (sorted; interval-folded once the predicate set is settled and
    conjunctive), so states that differ only by predicate order or by
    equivalent predicate spellings collide.  The used literal multiset
    and the verbatim join path are part of the key, keeping the
    complete-stage literal check and row-order-sensitive sketch
    satisfaction observationally equal across collapsed states.  Equal
    {!key}s give equal canonical keys (property-tested).  This is the
    reference identity of the enumerator's visited set: states are filed
    by {!canonical_hash}, and on a hash hit their canonical keys are
    compared ([dedup_semantic] counts the matches). *)
val canonical_key : t -> string

(** One-slot caches for {!canonical_hash}, keyed on the physical
    predicate lists, projections and join path of the last state hashed.
    Each run owns one; a memo must not be shared between domains. *)
type hash_memo

val hash_memo : unit -> hash_memo

(** [canonical_hash memo t] hashes [t] from its fields without rendering
    {!canonical_key}, of which it is a function: equal canonical keys
    give equal hashes (property-tested), while unequal keys may collide.
    Confidence and depth are not hashed.  The result does not depend on
    [memo]'s history. *)
val canonical_hash : hash_memo -> t -> int

(** Confidence-then-join-length ordering for the best-first frontier:
    higher confidence first; ties prefer shorter join paths
    (Section 3.3.4), then earlier creation. *)
val compare_priority : t * int -> t * int -> int
