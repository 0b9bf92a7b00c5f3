(** End-to-end construct → encode → decode runs and their verification
    (the spine of Theorem 7.5).

    [run algo ~n pi] performs the full chain of §5–§7 for one permutation
    and returns every intermediate object; [check] validates all the
    properties the theorems assert of them. [certify] sweeps a family of
    permutations and assembles the numerical {!Bounds.certificate}. *)

type result = {
  pi : Permutation.t;
  construction : Construct.t;
  encoding : Encode.t;  (** E_pi *)
  canonical : Lb_shmem.Execution.t;  (** the deterministic linearization *)
  decoded : Lb_shmem.Execution.t;  (** Decode(E_pi) *)
  cost : int;  (** C(alpha_pi), SC cost of the canonical linearization *)
  bits : int;  (** |E_pi| *)
}

val run : Lb_shmem.Algorithm.t -> n:int -> Permutation.t -> result
(** Raises [Invalid_argument] if the algorithm is declared [Uses_rmw]:
    the construction covers only the paper's read/write-register model
    (§8 discusses the extension), and failing up front with the
    [kind-honesty/undeclared-rmw] lint rule named beats the
    [Unsupported_primitive] crash that used to surface mid-sweep.
    [certify] refuses likewise. *)

exception
  Check_failed of {
    algo : string;
    n : int;
    pi : Permutation.t;
    stage : string;
    message : string;
  }
(** A verification stage of {!check} rejected a {!result}. [stage] is one
    of ["canonical"], ["decoded"] (execution-level checks), ["projection"],
    ["cost"], ["encoding"] or ["roundtrip"], so a quarantined sweep entry
    or a CI log names the broken link of the construct → encode → decode
    chain, not just "check failed". A printer is registered with
    [Printexc], so generic handlers render it readably. *)

val check : Lb_shmem.Algorithm.t -> n:int -> result -> (unit, string) Result.t
(** Verifies, returning the first failure:
    {ol
    {- the canonical linearization is a well-formed, mutually-exclusive
       execution in which every process completes exactly one critical
       section (Theorem 5.5 via {!Lb_mutex.Checker});}
    {- processes enter their critical sections in the order [pi]
       (Theorem 5.5);}
    {- the decoded execution satisfies the same;}
    {- decode and the canonical linearization agree per process:
       [decoded|i = canonical|i] for every [i] (both are linearizations
       of [(M, ⪯)], Lemma 5.4 / Theorem 7.4);}
    {- their SC costs agree (Lemma 6.1);}
    {- [|E_pi| > 0] and the parsed cells round-trip.}}
    It replays each execution once ({!Lb_shmem.Replay.run}). *)

val run_checked : Lb_shmem.Algorithm.t -> n:int -> Permutation.t -> result
(** {!run} followed by {!check}; raises {!Check_failed} on a check
    failure. *)

type record = {
  r_pi : Permutation.t;
  r_cost : int;  (** C(alpha_pi) *)
  r_bits : int;  (** |E_pi| *)
  r_exec_fp : string;  (** {!Lb_shmem.Execution.fingerprint} of the decode *)
}
(** The distilled per-permutation facts a certificate is aggregated
    from — everything {!certify} needs, and exactly what the durable
    result store ([Lb_store]) persists per entry, so warm sweeps rebuild
    certificates without re-running the pipeline. *)

val record_of_result : result -> record
(** The record of a result; [r_exec_fp] is
    {!Lb_shmem.Execution.fingerprint} of [decoded]. *)

val run_record : Lb_shmem.Algorithm.t -> n:int -> Permutation.t -> result * record
(** {!run_checked} and its record, from two {!Lb_shmem.Replay.run}
    passes: the canonical execution's gives [cost] and its checks, the
    decoded one's the rest of {!check} and [r_exec_fp]. *)

val certificate_of_records :
  Lb_shmem.Algorithm.t ->
  n:int ->
  exhaustive:bool ->
  record list ->
  Bounds.certificate
(** Aggregate a certificate from records in family order. {!certify} is
    exactly {!records} + this, so any source of the same records
    — a fresh sweep, a warm store, or a mix — yields a byte-identical
    certificate. Raises [Invalid_argument] on the empty list. *)

val records :
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Permutation.t list ->
  ?jobs:int ->
  unit ->
  record list
(** [List.map (fun pi -> record_of_result (run_checked algo ~n pi)) perms],
    computed in trie order: constructions come from
    {!Construct.run_family}, so each prefix shared by several [pi] is
    built once, and every leaf runs encode, linearize, decode, cost and
    the checks of {!check} before the walk moves on. Records are
    returned in input order (duplicates included) at every job count.

    With [jobs > 1] the family, sorted by [pi], is cut at the shortest
    prefix depth giving at least [4 * jobs] groups; the groups fan out
    over {!Lb_util.Pool.map} and each builds its own prefix. The records
    do not depend on the cut, so the output is the same for every
    [jobs]. [jobs] defaults to {!Lb_util.Pool.default_jobs}.

    If the trie path raises anything but {!Lb_util.Pool.Cancelled}, the
    family is re-run per [pi] through [Pool.map run_checked], so the
    exception raised — and the [pi] and stage it names — is exactly the
    per-[pi] sweep's. Raises [Invalid_argument] for a [Uses_rmw]
    algorithm; an empty [perms] gives []. *)

val certify :
  Lb_shmem.Algorithm.t ->
  n:int ->
  perms:Permutation.t list ->
  ?exhaustive:bool ->
  ?jobs:int ->
  unit ->
  Bounds.certificate
(** [certificate_of_records algo ~n ~exhaustive (records algo ~n ~perms
    ?jobs ())]: run the checked pipeline for every permutation, in trie
    order, and aggregate the certificate. [distinct] is established by
    fingerprinting every decoded execution.

    The records, and so the certificate, are identical for every job
    count, and equal to those of the per-[pi] [map run_checked] — which
    is what the durable sweep engine ([Lb_store.Sweep]) computes, so a
    certificate rebuilt from cached entries is byte-identical. Errors
    are those of the per-[pi] sweep (see {!records}). Raises
    [Invalid_argument] on an empty [perms] (an empty family has no
    well-defined certificate: its mean cost is 0/0 and its information
    bound is [log2 0]). *)
