(** Per-manifest-entry work leases — the coordination substrate for
    distributed sweeps.

    {!Store_lock} serializes {e whole-store} writers; K independent
    [mutexlb work] processes attacking one sweep need something finer:
    a lease {e per work unit} (per store key), cheap enough to take and
    release thousands of times, safe under [kill -9], clock skew and
    torn writes. This module provides it with plain files under

    {v DIR/claims/<sweep_id>/ v}

    {2 The claim protocol}

    A claim on [key] at epoch [E] is the file [<key>.<E>.claim]. The
    whole protocol is built from one primitive — [O_CREAT|O_EXCL]
    creation of a {e specific filename} — and the rule that per-key
    epochs only ever move upward:

    {ul
    {- {b take}: create [<key>.1.claim] with [O_EXCL]. Exactly one of
       any number of racing workers wins; the rest see [EEXIST].}
    {- {b heartbeat}: the holder refreshes the file's mtime
       ([Unix.utimes]). The filesystem stamps the time, so workers on
       the same store agree on ages regardless of their process clocks.}
    {- {b expire / steal}: a claim whose mtime is more than [ttl] away
       from now (in {e either} direction — a far-future stamp from a
       skewed or rsync'd host is as dead as a far-past one) is stale.
       Stealing epoch [E] means creating [<key>.<E+1>.claim] with
       [O_EXCL]: again exactly one winner, and the zombie holder of
       epoch [E] {e has no name for the new file} — it can refresh or
       remove only its own [<key>.<E>.claim], which is now debris. This
       is the fencing: a worker resuming after expiry can never clobber
       the re-granted claim.}
    {- {b release}: rename own [<key>.<E>.claim] → [<key>.<E>.quit]. A
       [.quit] file keeps the epoch high-water mark on disk (so epoch
       [E] is never reused — the unlink-based alternative would let a
       very stale zombie release a {e successor's} claim) while marking
       the key immediately re-claimable.}}

    Claim file {e content} is purely diagnostic (pid, host, purpose);
    correctness never reads it, so a torn, truncated or bit-flipped
    claim file cannot confuse the protocol — the corruption tests check
    exactly this.

    {2 Exactly-once failure publication}

    Computed results are content-addressed store entries: writing one
    twice is byte-idempotent, so duplicated {e successful} work is
    harmless (only wasteful). A {e failure} has no store entry — its
    only trace is the quarantine record — and the failing computation
    is the one non-idempotent unit of work (a [pi_timeout]'s cost is
    the whole overrun pipeline). {!publish_failure} therefore writes
    [<key>.failed] via hard-link-from-temp: the file appears atomically
    with its full content, and exactly one publisher wins; everyone
    else sees [EEXIST] and defers. Workers treat an existing [.failed]
    as terminal and never re-claim the key. *)

type t
(** A handle on one sweep's claims directory. *)

val open_ : Store.t -> sweep_id:string -> t
(** Open (creating as needed) [DIR/claims/<sweep_id>/]. *)

val dir : t -> string
(** The claims directory path (for the fault machinery and tests). *)

type claim
(** A held per-key claim. Release exactly once; a crash releases
    implicitly via TTL expiry. *)

val key : claim -> string
val epoch : claim -> int

type slot =
  | Free  (** no claim file — take epoch 1 *)
  | Held of { epoch : int; age : float }
      (** live [.claim]; [age = |now - mtime|], stealable when > ttl *)
  | Released of { epoch : int }  (** [.quit] high-water mark; take epoch+1 *)

val snapshot : t -> (string, slot) Hashtbl.t
(** One [readdir] pass over the claims directory: the current slot of
    every key that has any claim or quit file (absent keys are [Free]).
    Unparsable filenames are ignored as debris. *)

val try_claim : ?slot:slot -> t -> key:string -> ttl:float -> claim option
(** One attempt to claim [key]. [slot] (default: probe the directory)
    is a {!snapshot} hint — a stale hint only ever causes a lost race
    ([None]), never a double grant, because the [O_EXCL] create is the
    arbiter. [None] means someone else holds a live claim (or won the
    race); back off and rescan. On success, lower-epoch debris for the
    key is swept. [ttl] must be positive. *)

val refresh : claim -> bool
(** Heartbeat: bump own claim file's mtime. [false] if the file is gone
    — the claim expired and was stolen; the holder should finish its
    in-flight unit (publication stays safe: entries are idempotent,
    failures go through {!publish_failure}) but claim nothing more from
    this handle. *)

val release : claim -> unit
(** Rename own [.claim] → [.quit]. Idempotent; a no-op if the claim was
    stolen. *)

val abandon : claim -> unit
(** {!release} for a unit that was {e not} completed (SIGTERM drain):
    identical on-disk effect — the [.quit] marks the key immediately
    re-claimable by a surviving worker. *)

val publish_failure : t -> key:string -> message:string -> bool
(** Atomically publish the quarantine record [<key>.failed] (hard link
    from a temp file: full content or nothing, exactly one winner).
    [true] if this call published, [false] if a record already existed
    — the caller drops its own message and re-reads {!failure}. *)

val failure : t -> key:string -> string option
(** The published quarantine message, if any. *)

val scrub : t -> unit
(** Remove the whole claims directory — called once a sweep has fully
    resolved (claims for finished keys are pure debris). Safe under
    races: a concurrent worker's claim files may survive the scrub (the
    directory is recreated on demand); correctness never depends on a
    scrub happening. *)

val live_claims : Store.t -> ttl:float -> (string * string) list
(** [(sweep_id, key)] of every in-TTL [.claim] across {e all} sweeps of
    the store — GC's "is anyone working here?" probe, the per-entry
    analogue of {!Store_lock.writer_held}. Sorted. *)

val default_ttl : float
(** The claim TTL used by the CLI and serve paths when none is given:
    [30.0] seconds — several heartbeat intervals
    past the longest expected unit, so a live-but-slow worker is not
    spuriously stolen from, while a SIGKILL'd worker's units are
    re-granted within a minute. *)
