(** A growing partial order over integer element ids.

    Backs the construction's order [⪯] on metasteps (paper §5). Elements
    are added once; edges only accumulate, so reachability ([leq]) is the
    reflexive–transitive closure of the edge relation. The construction
    adds edges only from already-present elements, which keeps the relation
    acyclic; {!add_edge} enforces this with an explicit check.

    Ids index growable arrays, so they should be dense small naturals
    (metastep ids are). Queries reuse per-poset scratch arrays: a poset
    is not safe to share between domains, even read-only. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent deep copy: later changes to either poset do not show
    in the other. Lets the construction share a prefix's order between
    permutations that extend it. *)

val add_element : t -> int -> unit
(** Register a new element id. Ids must be registered before use; raises
    [Invalid_argument] on duplicates and negative ids. *)

val mem : t -> int -> bool

val cardinal : t -> int

val elements : t -> int list
(** All element ids in registration order. *)

exception Cycle of int * int
(** Raised by {!add_edge} when the new edge would create a cycle. *)

val add_edge : t -> int -> int -> unit
(** [add_edge t a b] records [a ⪯ b]. Idempotent on duplicate edges.
    Raises {!Cycle} if [b ⪯ a] already holds (with [a <> b]). *)

val preds : t -> int -> int list
(** Direct predecessors. *)

val succs : t -> int -> int list
(** Direct successors. *)

val leq : t -> int -> int -> bool
(** [leq t a b] — does [a ⪯ b] hold (reflexively, transitively)? *)

val down_set : t -> int -> int list
(** All elements [⪯ m], including [m] itself. *)

val down_set_stopping : t -> int -> stop:(int -> bool) -> int list
(** Like {!down_set} but does not traverse below elements satisfying
    [stop] (the stopped elements themselves are excluded). Used to collect
    the not-yet-executed part of a down-set cheaply. [stop] must not
    query the poset. *)

val maximal_among : t -> int list -> int list
(** Elements of the list with no strict successor in the list, in input
    order. One traversal of the down-set of the list. *)

val minimal_among : t -> int list -> int list

val topo_sort : t -> int list -> int list
(** Topological order of the given elements (which must be closed enough
    that comparisons outside the list don't matter — we only use edges
    between listed elements), smallest id first among ready elements, so
    the order is deterministic. *)

val is_chain : t -> int list -> bool
(** Are the listed elements totally ordered by [⪯]? *)
