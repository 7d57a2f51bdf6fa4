(** The Duocheck fuzz properties, as QCheck tests.

    - {b differential}: planner-on and planner-off execution agree with
      the naive {!Reference} interpreter on every generated query (all
      three error out on out-of-scope inputs);
    - {b round-trip}: [parse (pretty q) = q] under {!Duosql.Equal.queries};
    - {b columnar}: Duodb's columnar views (cells, column vectors, zone
      maps) and the engine's probe kernels agree with the materialized
      row view and a scalar reference scan;
    - {b batched execution}: {!Duoengine.Executor.run_batch} returns
      exactly what per-query {!Duoengine.Executor.run} returns;
    - {b cascade soundness}: no Verify stage prunes a partial query that
      has a completion satisfying the TSQ ({!Soundness.check});
    - {b Property 1}: every expansion's children partition the parent's
      confidence mass (join-path forks exempt by design);
    - {b key coarsening}: states with equal {!Duocore.Partial.key}s have
      equal {!Duocore.Partial.canonical_key}s, so the enumerator's one
      visited set (keyed by the canonical key) subsumes exact dedup;
    - {b state hash}: states with equal
      {!Duocore.Partial.canonical_key}s have equal
      {!Duocore.Partial.canonical_hash}es, whatever the memo saw before,
      so the visited set's hash-then-compare lookup keeps the key's
      equivalence;
    - {b header hints}: expansion under a sketch's hints never proposes a
      child whose projections contradict the sketch's type annotations,
      so the cascade needs no types stage;
    - {b resume determinism}: a run time-sliced via {!Duocore.Enumerate.step}
      and resumed is observably identical to the uninterrupted run — the
      contract Duoserve's session scheduler rests on;
    - {b refinement monotonicity}: any {!Duocore.Tsq.refines} tightening
      only grows the cascade's prune set — no state pruned under the old
      sketch is revived by the new one (the contract behind
      {!Duocore.Enumerate.rebase} keeping the visited set);
    - {b incremental refine}: enumerating under a loosened sketch, then
      rebasing onto the original mid-run, emits the same candidates as a
      from-root run under the original;
    - {b Duosem equivalence}: {!Duolint.Duosem.canonical_query} keeps the
      error status and the result multiset of every generated query on
      its database, and canonicalization is idempotent;
    - {b Duosem cardinality}: {!Duolint.Duosem.bound_query}'s interval
      contains the true row count of every query that executes;
    - {b Domain lattice laws}: {!Duolint.Domain} meet is exact
      intersection and join over-approximates union (checked against
      concrete membership), [leq] is a partial order consistent with
      inclusion, and widening covers its operand and stabilizes along
      randomized ascending chains. *)

(** Individual properties, exposed for ad-hoc harnesses. *)

val differential_prop : Gen.scenario -> bool
val roundtrip_prop : Gen.scenario -> bool
val columnar_prop : Gen.scenario -> bool
val batch_prop : Gen.scenario -> bool
val soundness_prop : Gen.scenario -> bool
val property1_prop : Gen.scenario * int -> bool
val key_coarsening_prop : Gen.scenario * int -> bool
val state_hash_prop : Gen.scenario * int -> bool
val header_types_prop : Gen.scenario * int -> bool
val duosem_equiv_prop : Gen.scenario -> bool
val duosem_card_prop : Gen.scenario -> bool
val domain_lattice_prop : int -> bool

(** [tests ~mult ()] builds the property list with iteration counts scaled
    by [mult] (default 1: the small seeded configuration wired into
    [dune runtest]; the [@fuzz] alias passes a large multiplier). *)
val tests : ?mult:int -> unit -> QCheck.Test.t list
