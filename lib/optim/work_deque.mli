(** Sharded work-stealing scheduler for the parallel branch-and-bound
    driver.

    Each worker owns a {e shard}: a private best-first min-heap plus a
    single in-flight slot, guarded by a per-shard lock.  Workers push
    their own expansions to their own shard and pop locally; a worker
    whose heap runs dry steals the best half of a victim's heap
    ({!Pqueue.steal_half}) instead of contending on a central queue.
    Cross-shard reads (the frontier-bound gap test, victim selection,
    termination detection) go through per-shard atomic mirrors, so in
    steady state no lock is shared between workers.

    Mirror publication is {e batched}: an exact publish happens every
    few dozen shard mutations and on every steal boundary, not on every
    push/pop.  Between publishes the mirrors are stale in the only
    directions that are safe — the bound mirror stale {e low} (a push
    that undercuts it lowers it immediately; pops merely raise the
    truth), the length mirror stale {e high} except that it reads zero
    only when the queue is truly empty (a push onto an empty-looking
    shard publishes the length immediately).  Call {!sync_mirrors} at
    quiescence to make them exact.  A single-shard deque publishes on
    every mutation, so its mirrors are always exact.

    Concurrency contract:
    - [push]/[take]/[release] with a given [~worker] index must only be
      called by that worker (shard ownership); [try_steal ~thief]
      likewise.  Exception: before any worker has started (e.g. while
      the driver deals a seeded frontier across shards), the setup
      thread may [push] to any shard.
    - Items must never be mutated after being pushed (the B&B contract),
      which is what makes {!snapshot} and node migration race-free.
    - each shard's bound mirror is conservative: at every instant it
      is [<=] the true minimum key over that shard's live (queued +
      in-flight) work, between batched publishes too.  The lock-free
      fold {!frontier_bound} is {e not}: a steal that moves the minimum
      from a shard the fold has yet to read to one it has already read
      hides it.  Confirm with {!exact_bound} before acting on it.
    - [drained] is exact: it flips true only when the search space is
      genuinely exhausted (children are pushed before their parent is
      released).

    Termination protocol: a worker with no local work and nothing to
    steal calls {!park}, which blocks on its own condition variable.  A
    {!push} with idlers present wakes exactly one parked worker (a
    {e targeted} signal — no thundering herd); {!close} wakes them
    all. *)

type 'a t

val create : ?carries_warm:('a -> bool) -> workers:int -> unit -> 'a t
(** A deque with one shard per worker (ids [0 .. workers-1]).
    [?carries_warm] is a pure predicate for "this item migrates with
    usable warm-start state" (e.g. a B&B region holding its parent's
    relaxation optimum); when given, {!try_steal} counts matching
    stolen items into {!stolen_warm}, turning "warm state survives
    steals" from an assumption into a measured fact.  The predicate
    runs under both shard locks — keep it O(1) and never let it touch
    the deque.
    @raise Invalid_argument if [workers < 1]. *)

val workers : 'a t -> int

val push : 'a t -> worker:int -> float -> 'a -> unit
(** Queue an item on [worker]'s shard and wake one parked worker if any
    are parked.  Mirror updates are batched, except the two safety
    cases published immediately: a key below the shard's bound mirror,
    and work arriving on a shard whose length mirror reads zero. *)

val take : 'a t -> worker:int -> (float * 'a) option
(** Pop the minimum-key item of [worker]'s own shard and mark it in
    flight there; [None] when the local shard is empty (work may exist
    on other shards — try {!try_steal}).  Each worker holds at most one
    in-flight item at a time. *)

val release : 'a t -> worker:int -> unit
(** Mark [worker]'s in-flight item finished.  Its children, if any, must
    have been {!push}ed first, so the live count can only reach zero
    when the search space is exhausted. *)

val try_steal : 'a t -> thief:int -> (float * 'a) option
(** Pick the victim by mirrored bound quality: among shards whose length
    mirror shows queued work, steal from the one advertising the lowest
    (most promising) bound; on a stale miss, publish the victim's true
    state and retry the next-best candidate.  Transfers the best half of
    the victim's heap into [thief]'s shard (both shard locks held, in
    ascending index order) and returns the best stolen item, already
    marked in flight on [thief].  [None] when every other shard is
    empty.  Both shards leave a steal with exact mirrors; a concurrent
    {!frontier_bound} fold may still miss the moved items (see
    {!exact_bound}). *)

val prune : 'a t -> (float -> 'a -> bool) -> unit
(** Drop queued items not satisfying the predicate on every shard
    (in-flight items are unaffected).  Shards are pruned one at a time;
    callable by any worker.  Publishes exact mirrors per shard. *)

val shed : 'a t -> worker:int -> keep:int -> (int * float) option
(** [shed t ~worker ~keep] drops the {e largest}-key queued items of
    [worker]'s own shard until at most [keep] remain (the in-flight item
    is untouched), returning [Some (dropped, min_dropped_key)] or [None]
    when the shard was already within budget.  The bounded-memory
    frontier primitive: shed nodes are gone for good, so soundness
    requires the caller to fold [min_dropped_key] into every bound and
    gap it subsequently reports ({!Pqueue.drop_worst} explains why that
    suffices).  Shard-ownership contract as for {!push}. *)

val snapshot : 'a t -> (float * 'a) list
(** Every live item with its key: queued {e and} in-flight, across all
    shards.  Holds all shard locks (ascending order) for the duration,
    so no item can be lost mid-steal — this is the full frontier a
    checkpoint must persist. *)

val sync_mirrors : 'a t -> unit
(** Publish exact mirrors on every shard (each under its own lock).
    With no concurrent mutators — after the workers have joined —
    {!frontier_bound} and {!queue_length} are exact afterwards instead
    of up to one publish epoch stale.  The driver calls this before
    computing the final reported bound/gap. *)

val frontier_bound : 'a t -> float
(** Minimum key over queued and in-flight items, folded over the atomic
    mirrors without locks: cheap enough for every loop iteration, exact
    at quiescence after {!sync_mirrors}, and [infinity] when drained.
    While steals run it can read {e above} the true minimum (see the
    concurrency contract), so a decision that needs a lower bound — a
    [Gap_reached] stop — must confirm it with {!exact_bound}. *)

val exact_bound : 'a t -> float
(** The true minimum key over queued and in-flight items at one
    instant: read under every shard lock, taken in ascending order as
    {!snapshot} takes them, so no item can be mid-transfer.  [infinity]
    when drained.  O(shards) lock acquisitions: for confirming a stop,
    not for the hot path. *)

val live : 'a t -> int
(** Queued + in-flight items across all shards. *)

val drained : 'a t -> bool
(** [live t = 0]: the search space is exhausted. *)

val queue_length : 'a t -> int
(** Total queued (not in-flight) items, from the length mirrors —
    approximate while workers are active (exact after
    {!sync_mirrors} at quiescence). *)

val close : 'a t -> unit
(** Initiate shutdown and wake every parked worker. *)

val is_closed : 'a t -> bool

val park : 'a t -> worker:int -> [ `Work | `Drained | `Closed ]
(** Block [worker] until work appears somewhere ([`Work] — go steal or
    take), the deque drains ([`Drained]) or is closed ([`Closed]).
    Returns without blocking if any of these already holds.  Each pass
    through the wait counts one idle wake-up.  The worker parks on its
    own condition variable so pushers can wake exactly one sleeper. *)

val idle_wakeups : 'a t -> int
(** Times a worker actually blocked waiting for work — the
    starvation observability counter. *)

val targeted_wakeups : 'a t -> int array
(** Per-worker targeted-signal counts: [targeted_wakeups t].(w) is the
    number of times worker [w] was woken by a push's targeted signal
    (indexed by the woken worker).  The sum is the total number of
    single-worker wakeups that under the old protocol would each have
    been a broadcast to the whole herd. *)

val steals : 'a t -> int
(** Successful steal-half transfers. *)

val stolen_nodes : 'a t -> int
(** Total items moved by steals. *)

val steals_best_victim : 'a t -> int array
(** Per-thief victim-quality counts: [steals_best_victim t].(w) is the
    number of worker [w]'s successful steals that landed on its first
    choice — the victim advertising the globally minimal mirrored
    bound.  A low ratio against {!steals} means the mirrors are too
    stale to guide victim selection. *)

val stolen_warm : 'a t -> int
(** Stolen items that satisfied the [?carries_warm] predicate at steal
    time — the migrated-warm-state observability counter.  0 when the
    predicate was not supplied. *)
