(** Best-first frontier for Algorithm 1: a binary min-heap ordered by
    {!Partial.compare_priority} (highest confidence first, then shorter join
    paths, then insertion order for determinism). *)

type t

(** [create ?cap ()] — when more than [cap] states are queued, the frontier
    is compacted to its best [cap/2] entries (bounded best-first search: a
    memory guard, the only deviation from complete enumeration, and only
    under extreme fan-out). Default: unbounded. *)
val create : ?cap:int -> unit -> t

(** States discarded by compaction so far. *)
val dropped : t -> int

(** Number of states currently queued. *)
val size : t -> int

val is_empty : t -> bool

(** [push t pq] enqueues a state, stamping it with an insertion sequence
    number. *)
val push : t -> Partial.t -> unit

(** Remove and return the highest-priority state. *)
val pop : t -> Partial.t option

(** [pop_k t k] removes and returns up to [k] states in priority order —
    exactly the states [k] successive {!pop} calls would return.  Fewer
    than [k] states come back only when the frontier runs dry. *)
val pop_k : t -> int -> Partial.t list

(** Like {!pop_k} but keeps each state's insertion sequence number, so a
    batch that was only {e inspected} can be put back verbatim with
    {!restore}.  Used by {!Enumerate.rebase}: it drains the frontier,
    re-verifies every state under the tightened sketch and restores the
    survivors in their original order. *)
val pop_entries : t -> int -> (Partial.t * int) list

(** Re-insert entries from {!pop_entries} with their original sequence
    numbers.  Does not advance the {!pushed} counter, so a
    pop-and-restore round leaves priority order, tie-breaking and
    accounting exactly as if it never happened.  (Restoring into a
    frontier past its cap still triggers compaction, like any insert.) *)
val restore : t -> (Partial.t * int) list -> unit

(** Total states ever pushed (the sequence counter). *)
val pushed : t -> int
