(** Duopar: a fixed pool of worker domains for batch-parallel rounds.

    Built on the OCaml 5 stdlib only ([Domain], [Mutex], [Condition],
    [Atomic]) — no external dependencies.  The pool shards independent
    tasks — benchmark split generation and whole synthesis runs
    (Duobench, Spider-gen) — in rounds separated by sequential merge work
    on the caller's domain.  A single synthesis run never uses it.

    Concurrency contract:
    - {!run} is a {e barrier}: it returns only after every task of the
      round has finished.  Between rounds the worker domains block on a
      condition variable, so an idle pool costs nothing but memory.
    - The calling domain participates in every round as worker [0];
      worker ids [1 .. domains-1] are the spawned domains.  Tasks are
      claimed from a shared [Atomic] counter (work stealing), so the
      mapping from task index to worker is {e not} deterministic — tasks
      must not communicate through anything keyed by worker id except
      domain-confined caches whose contents never change results.
    - At most one round may be in flight per pool; {!run} must only be
      called from the domain that created the pool, and never from
      inside a task.

    A pool with [domains = 1] spawns nothing and {!run} degenerates to a
    plain sequential [for] loop on the caller — the parallel and
    sequential code paths are the same code. *)

type t

(** [create ~domains] spawns [domains - 1] worker domains (clamped to
    [1 .. 64]).  The caller's domain is worker [0]. *)
val create : domains:int -> t

(** Number of domains participating in rounds (workers + caller). *)
val domains : t -> int

(** [run t n f] executes [f ~worker i] for every [i] in [0 .. n-1],
    distributing tasks across all domains, and returns when all have
    completed.  [worker] identifies the executing domain
    ([0 .. domains-1]) so tasks can index per-domain state.  If any task
    raises, the first exception (by completion order) is re-raised on
    the caller after the round completes; the remaining tasks still
    run. *)
val run : t -> int -> (worker:int -> int -> unit) -> unit

(** Stop and join all worker domains.  The pool must be idle (no round
    in flight).  Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, even if [f] raises. *)
val with_pool : domains:int -> (t -> 'a) -> 'a
