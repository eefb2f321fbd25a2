(* Sharded work-stealing scheduler for the parallel branch-and-bound
   driver.  Each worker owns a shard: a private best-first heap plus a
   single in-flight slot, both guarded by a per-shard lock.  A worker
   whose own heap runs dry steals the best half of a victim's heap
   instead of blocking on a central queue, so in steady state queue
   operations touch only worker-local state and no lock is contended.

   Lock ordering (deadlock-freedom): whenever two shard locks are held
   at once — stealing and whole-frontier snapshots — they are taken in
   ascending shard-index order.  The park lock is never held while
   acquiring a shard lock, and shard locks are never held while
   acquiring the park lock beyond the leaf signal in [push] (which takes
   the park lock *after* releasing the shard lock, see below).

   Mirrors: each shard keeps its minimum live key and queue length in
   [Atomic.t] mirrors.  Readers (the gap test, victim selection, the
   park re-check) read the mirrors without locks.  Publication is
   batched: a full (exact) publish happens only every [publish_epoch]
   mutations, on steal boundaries, and on quiescence-relevant
   transitions — not on every push/pop — so the hot path pays at most
   one cheap conditional atomic store per operation instead of two
   unconditional ones.  Batching is safe because staleness is one-sided
   where it matters:

   - the bound mirror may only ever be stale LOW.  A push whose key
     undercuts the mirror lowers it immediately (stale-high would let
     the gap test overshoot the true minimum — unsound); pops and
     releases raise the true minimum and are allowed to leave the
     mirror behind (stale-low merely delays a Gap_reached by at most
     one epoch — conservative).  The steal protocol additionally
     publishes the thief's mirror (which can only lower the global
     minimum) before the victim's (which may raise it), so the
     mirror-derived frontier bound never overshoots mid-transfer.
   - the length mirror may only read zero when the queue is truly
     empty.  A push onto a shard whose length mirror reads zero
     publishes the length immediately (a parker or thief must be able
     to see the work — liveness); pops leave it stale HIGH, which
     costs at most one wasted steal attempt that then publishes the
     exact value under the victim's lock. *)

(* Exact mirror publications are amortized over this many shard
   mutations.  Small enough that a stale-low bound delays the gap test
   by a handful of nodes at worst; large enough that the per-node
   mirror cost disappears from profiles.  A single-shard deque publishes
   on every mutation instead: its lone worker is the only reader, so the
   batching saves no cross-core traffic, and exact mirrors make its gap
   test stop on the very node a plain best-first loop would. *)
let publish_epoch = 32

(* Scheduler metrics, registered eagerly at module init; recording is
   guarded by [Obs.Metrics.enabled] at every site (see Obs).  Glossary:
   doc/observability.mld. *)
let m_steal_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"successful steal-half transfers between shards"
    "ldafp_sched_steal_total"

let m_steal_miss_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"steal scans that found every sibling shard empty"
    "ldafp_sched_steal_miss_total"

let m_park_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"times a worker parked on its idle condvar"
    "ldafp_sched_park_total"

let m_targeted_wakeup_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"pushes that woke exactly one parked worker (targeted signal)"
    "ldafp_sched_targeted_wakeup_total"

let m_steal_seconds =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1e-8 ~hi:1.0
    ~help:"wall time of a successful steal (victim scan to acquisition)"
    "ldafp_sched_steal_seconds"

let m_queue_depth =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1.0 ~hi:1e6
    ~help:"owner-shard queue length sampled after each push"
    "ldafp_sched_queue_depth"

let m_frontier_size =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:
      "queued regions across all shards, republished on every exact \
       mirror publication (epoch-batched; approximate between epochs)"
    "ldafp_bnb_frontier_size"

type 'a shard = {
  lock : Mutex.t;
  queue : 'a Pqueue.t;
  mutable busy : (float * 'a) option;
      (* The owner's in-flight item and its key; None when idle.  The
         item itself is kept (not just the key) so checkpoints can
         snapshot the full live frontier. *)
  bound_mirror : float Atomic.t;
      (* min(queue min key, busy key) at the last publish; never above
         the true value (see the staleness argument above);
         +infinity when the shard holds no live work. *)
  len_mirror : int Atomic.t;
      (* queue length at the last publish, for victim selection and the
         park re-check; reads zero only when the queue is truly empty *)
  mutable dirty : int;
      (* mutations since the last exact publish, under the shard lock *)
}

type 'a t = {
  shards : 'a shard array;
  epoch : int;  (* mutations per exact mirror publish *)
  live : int Atomic.t;
      (* Queued + in-flight items across all shards.  Children are
         pushed (incrementing) before their parent is released
         (decrementing), so [live] can only reach 0 when the search
         space is genuinely exhausted. *)
  closed : bool Atomic.t;
  idlers : int Atomic.t;  (* workers inside [park], under park_lock *)
  park_lock : Mutex.t;
  park_conds : Condition.t array;
      (* One condvar per worker: a pusher wakes exactly the worker it
         pops off [idler_stack], never the whole herd. *)
  mutable idler_stack : int list;
      (* Parked worker ids, most recently parked first, under
         [park_lock].  LIFO so the wakened worker has the warmest
         cache. *)
  idle_wakeups : int Atomic.t;
  targeted_wakeups : int Atomic.t array;
      (* targeted_wakeups.(w): times worker [w] was woken by a targeted
         signal (indexed by the woken worker, not the signaller) *)
  steals : int Atomic.t;
  stolen : int Atomic.t;
  steals_best : int Atomic.t array;
      (* steals_best.(thief): successful steals whose victim held the
         globally minimal mirrored bound at selection time — the
         victim-quality counter *)
  carries_warm : ('a -> bool) option;
      (* Caller's predicate for "this item migrates with usable warm-
         start state"; counted per stolen item so the migration claim is
         measured, not assumed. *)
  stolen_warm : int Atomic.t;
}

let create ?carries_warm ~workers () =
  if workers < 1 then invalid_arg "Work_deque.create: workers < 1";
  {
    shards =
      Array.init workers (fun _ ->
          {
            lock = Mutex.create ();
            queue = Pqueue.create ();
            busy = None;
            bound_mirror = Atomic.make Float.infinity;
            len_mirror = Atomic.make 0;
            dirty = 0;
          });
    epoch = (if workers = 1 then 1 else publish_epoch);
    live = Atomic.make 0;
    closed = Atomic.make false;
    idlers = Atomic.make 0;
    park_lock = Mutex.create ();
    park_conds = Array.init workers (fun _ -> Condition.create ());
    idler_stack = [];
    idle_wakeups = Atomic.make 0;
    targeted_wakeups = Array.init workers (fun _ -> Atomic.make 0);
    steals = Atomic.make 0;
    stolen = Atomic.make 0;
    steals_best = Array.init workers (fun _ -> Atomic.make 0);
    carries_warm;
    stolen_warm = Atomic.make 0;
  }

let workers t = Array.length t.shards

(* Exact mirror publication.  Must hold [s.lock].  The frontier-size
   gauge rides the same epoch batching: summing the length mirrors is
   [workers] atomic loads, paid only on exact publishes — never on the
   per-push/pop hot path — and nothing at all when metrics are off. *)
let publish_mirrors t s =
  let b =
    match s.busy with
    | Some (k, _) -> Float.min k (Pqueue.min_key s.queue)
    | None -> Pqueue.min_key s.queue
  in
  Atomic.set s.bound_mirror b;
  Atomic.set s.len_mirror (Pqueue.length s.queue);
  s.dirty <- 0;
  if Obs.Metrics.enabled () then begin
    let total =
      Array.fold_left
        (fun acc sh -> acc + Atomic.get sh.len_mirror)
        0 t.shards
    in
    Obs.Metrics.set m_frontier_size (float_of_int total)
  end

(* Count one mutation against the publish epoch.  Must hold [s.lock]. *)
let note_mutation t s =
  s.dirty <- s.dirty + 1;
  if s.dirty >= t.epoch then publish_mirrors t s

(* Wake exactly one parked worker iff anyone is parked.  [idlers] is
   only incremented under the park lock, and a parker re-checks the
   length mirrors after incrementing it (before waiting), so this
   read-then-signal cannot lose a wakeup: either the pusher sees
   idlers > 0 and signals, or the parker's re-check sees the pusher's
   len_mirror update (both are SC atomics) and never waits.  The signal
   is targeted: the pusher pops one worker id off the idler stack and
   signals only that worker's condvar, so a push never stampedes the
   whole parked herd into a steal race it mostly loses. *)
let signal_work t =
  if Atomic.get t.idlers > 0 then begin
    Mutex.lock t.park_lock;
    (match t.idler_stack with
    | [] -> ()
    | w :: rest ->
        t.idler_stack <- rest;
        Atomic.incr t.targeted_wakeups.(w);
        if Obs.Metrics.enabled () then
          Obs.Metrics.incr m_targeted_wakeup_total;
        Condition.signal t.park_conds.(w));
    Mutex.unlock t.park_lock
  end

let push t ~worker key value =
  let s = t.shards.(worker) in
  Mutex.lock s.lock;
  Pqueue.push s.queue key value;
  Atomic.incr t.live;
  (* Soundness: a key below the published bound must be visible to the
     gap test immediately — the mirror may be stale low, never high. *)
  if key < Atomic.get s.bound_mirror then Atomic.set s.bound_mirror key;
  (* Liveness: work arriving on a shard whose length mirror reads zero
     must become visible to thieves and the park re-check now, or a
     targeted wakeup could be lost. *)
  if Atomic.get s.len_mirror = 0 then
    Atomic.set s.len_mirror (Pqueue.length s.queue);
  note_mutation t s;
  Mutex.unlock s.lock;
  if Obs.Metrics.enabled () then
    Obs.Metrics.observe m_queue_depth (float_of_int (Atomic.get s.len_mirror));
  signal_work t

let take t ~worker =
  let s = t.shards.(worker) in
  Mutex.lock s.lock;
  let r =
    match Pqueue.pop s.queue with
    | None ->
        (* The owner found its shard dry: publish exactly so its own
           stale-high length mirror cannot keep [park] spinning on a
           shard only this worker could have drained. *)
        publish_mirrors t s;
        None
    | Some (key, value) ->
        (* Queue -> busy slot: the item stays live, [t.live] unchanged,
           and the bound mirror still covers the key via [busy]. *)
        s.busy <- Some (key, value);
        note_mutation t s;
        Some (key, value)
  in
  Mutex.unlock s.lock;
  r

let release t ~worker =
  let s = t.shards.(worker) in
  Mutex.lock s.lock;
  s.busy <- None;
  Atomic.decr t.live;
  (* Releasing can only raise the true minimum: leaving the bound
     mirror stale low is conservative and costs nothing sound. *)
  note_mutation t s;
  Mutex.unlock s.lock
(* No signal here: the releasing worker is awake and will either find
   work (its children were pushed before this release, each signalling
   if needed) or detect the drain itself in [park]. *)

(* Lock [a] and [b] in ascending shard-index order.  [a] != [b]. *)
let lock_pair t ia ib =
  let lo, hi = if ia < ib then (ia, ib) else (ib, ia) in
  Mutex.lock t.shards.(lo).lock;
  Mutex.lock t.shards.(hi).lock

let unlock_pair t ia ib =
  Mutex.unlock t.shards.(ia).lock;
  Mutex.unlock t.shards.(ib).lock

(* Victim selection is by mirrored bound quality, not scan order: among
   the shards whose length mirror shows queued work, steal from the one
   advertising the most promising (lowest) bound — that is where the
   best-first frontier actually lives.  A miss (stale length mirror)
   publishes the victim's true state under its lock and falls back to
   the next-best candidate, so a stale mirror costs one extra scan, not
   a lost steal. *)
let try_steal t ~thief =
  let n = Array.length t.shards in
  let mine = t.shards.(thief) in
  (* Unconditional clock read: ~20 ns against a lock handoff; keeping
     the scan free of enabled-checks keeps the steal latency honest. *)
  let t0 = Obs.Clock.now_ns () in
  let tried = Array.make n false in
  tried.(thief) <- true;
  let pick () =
    let best = ref (-1) and best_b = ref Float.infinity in
    for v = 0 to n - 1 do
      if (not tried.(v)) && Atomic.get t.shards.(v).len_mirror > 0 then begin
        let b = Atomic.get t.shards.(v).bound_mirror in
        if !best < 0 || b < !best_b then begin
          best := v;
          best_b := b
        end
      end
    done;
    if !best < 0 then None else Some !best
  in
  let rec attempt ~first =
    match pick () with
    | None -> None
    | Some v ->
        tried.(v) <- true;
        let victim = t.shards.(v) in
        lock_pair t thief v;
        let moved = Pqueue.steal_half victim.queue mine.queue in
        let taken =
          if moved = 0 then None
          else begin
            Atomic.incr t.steals;
            ignore (Atomic.fetch_and_add t.stolen moved);
            (* The first candidate is the argmin of the mirrored bounds,
               i.e. the best victim the thief could have chosen given
               what the mirrors advertised. *)
            if first then Atomic.incr t.steals_best.(thief);
            (* The thief only steals when its own shard is dry, so right
               now [mine.queue] holds exactly the transferred items:
               count how many migrate with warm-start state attached. *)
            (match t.carries_warm with
            | Some pred ->
                let warm =
                  Pqueue.fold
                    (fun acc _ v -> if pred v then acc + 1 else acc)
                    0 mine.queue
                in
                if warm > 0 then
                  ignore (Atomic.fetch_and_add t.stolen_warm warm)
            | None -> ());
            (* The thief immediately claims its best stolen node, so a
               successful steal always yields work. *)
            match Pqueue.pop mine.queue with
            | Some (key, value) ->
                mine.busy <- Some (key, value);
                Some (key, value)
            | None -> assert false (* moved > 0 entries just arrived *)
          end
        in
        (* Publish the thief's mirror (can only lower the global min
           seen by readers) before the victim's (which raises it): at
           every instant the mirror-derived frontier bound stays <= the
           true minimum over live work.  Steal boundaries are also
           where batched staleness is flushed — both shards leave this
           section exact. *)
        publish_mirrors t mine;
        publish_mirrors t victim;
        unlock_pair t thief v;
        (match taken with
        | None -> attempt ~first:false
        | Some _ as some ->
            let dns = Obs.Clock.now_ns () - t0 in
            if Obs.Metrics.enabled () then begin
              Obs.Metrics.incr m_steal_total;
              Obs.Metrics.observe m_steal_seconds (float_of_int dns *. 1e-9)
            end;
            if Obs.Trace.enabled () then
              Obs.Trace.complete ~cat:"sched" "sched.steal" ~t0_ns:t0
                ~dur_ns:dns
                ~args:
                  [
                    ("thief", Obs.Trace.Int thief);
                    ("victim", Obs.Trace.Int v);
                    ("moved", Obs.Trace.Int moved);
                    ("best_victim", Obs.Trace.Int (if first then 1 else 0));
                  ];
            some)
  in
  let r = attempt ~first:true in
  (match r with
  | None ->
      if Obs.Metrics.enabled () then Obs.Metrics.incr m_steal_miss_total;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"sched" "sched.steal_miss"
          ~args:[ ("thief", Obs.Trace.Int thief) ]
  | Some _ -> ());
  r

let prune t pred =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      let before = Pqueue.length s.queue in
      Pqueue.filter_in_place s.queue pred;
      let dropped = before - Pqueue.length s.queue in
      if dropped > 0 then ignore (Atomic.fetch_and_add t.live (-dropped));
      publish_mirrors t s;
      Mutex.unlock s.lock)
    t.shards

(* Bounded-memory frontier: shed the worst (largest-key) queued items
   of the caller's own shard down to [keep].  The shed nodes leave the
   live count (they will never be expanded), so the caller MUST fold
   the returned minimum shed key into its reported bound/gap — see
   {!Pqueue.drop_worst} — or the anytime result would silently claim
   optimality over subtrees that were thrown away. *)
let shed t ~worker ~keep =
  let s = t.shards.(worker) in
  Mutex.lock s.lock;
  let dropped, min_key = Pqueue.drop_worst s.queue ~keep in
  if dropped > 0 then ignore (Atomic.fetch_and_add t.live (-dropped));
  publish_mirrors t s;
  Mutex.unlock s.lock;
  if dropped > 0 then Some (dropped, min_key) else None

(* Whole-frontier snapshot: hold *all* shard locks (ascending index, so
   this composes with the thieves' ordered pair-locking) while
   collecting queued and in-flight items.  With every lock held no item
   can be mid-transfer, so the snapshot is lossless — an in-transit
   region dropped from a checkpoint would silently discard its whole
   unexplored subtree on resume. *)
let snapshot t =
  Array.iter (fun s -> Mutex.lock s.lock) t.shards;
  let acc =
    Array.fold_left
      (fun acc s ->
        let acc =
          match s.busy with Some item -> item :: acc | None -> acc
        in
        Pqueue.fold (fun acc key v -> (key, v) :: acc) acc s.queue)
      [] t.shards
  in
  Array.iter (fun s -> Mutex.unlock s.lock) t.shards;
  acc

(* Flush every shard's batched staleness: after this (and with no
   concurrent mutators) the mirrors are exact, not merely
   conservative.  The driver calls it once after the worker joins so
   the final reported bound/gap is the true frontier minimum instead
   of an up-to-one-epoch-stale value. *)
let sync_mirrors t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      publish_mirrors t s;
      Mutex.unlock s.lock)
    t.shards

let frontier_bound t =
  Array.fold_left
    (fun acc s -> Float.min acc (Atomic.get s.bound_mirror))
    Float.infinity t.shards

let live t = Atomic.get t.live
let drained t = Atomic.get t.live = 0

let queue_length t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.len_mirror) 0 t.shards

let close t =
  Atomic.set t.closed true;
  Mutex.lock t.park_lock;
  (* Shutdown is the one broadcast left: every parked worker must see
     [closed], whichever condvar it waits on. *)
  Array.iter Condition.signal t.park_conds;
  Mutex.unlock t.park_lock

let is_closed t = Atomic.get t.closed

let park t ~worker =
  Mutex.lock t.park_lock;
  Atomic.incr t.idlers;
  let rec wait_loop () =
    if Atomic.get t.closed then `Closed
    else if Atomic.get t.live = 0 then `Drained
    else if
      (* Re-check under park_lock with idlers already published: any
         push after this scan sees idlers > 0 and signals.  The length
         mirror reads zero only when the queue is truly empty (see
         [push]), so a parker can never sleep through live work. *)
      Array.exists (fun s -> Atomic.get s.len_mirror > 0) t.shards
    then `Work
    else begin
      Atomic.incr t.idle_wakeups;
      if Obs.Metrics.enabled () then Obs.Metrics.incr m_park_total;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"sched" "sched.park"
          ~args:[ ("worker", Obs.Trace.Int worker) ];
      t.idler_stack <- worker :: t.idler_stack;
      Condition.wait t.park_conds.(worker) t.park_lock;
      (* A close broadcast or a spurious wake can return with our stack
         entry still present; drop it so a later targeted signal is
         not spent on a worker that is already awake. *)
      t.idler_stack <- List.filter (fun w -> w <> worker) t.idler_stack;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"sched" "sched.wake"
          ~args:[ ("worker", Obs.Trace.Int worker) ];
      wait_loop ()
    end
  in
  let outcome = wait_loop () in
  if outcome = `Drained && Obs.Trace.enabled () then
    Obs.Trace.instant ~cat:"sched" "sched.drain";
  Atomic.decr t.idlers;
  Mutex.unlock t.park_lock;
  outcome

let idle_wakeups t = Atomic.get t.idle_wakeups
let targeted_wakeups t = Array.map Atomic.get t.targeted_wakeups
let steals t = Atomic.get t.steals
let stolen_nodes t = Atomic.get t.stolen
let steals_best_victim t = Array.map Atomic.get t.steals_best
let stolen_warm t = Atomic.get t.stolen_warm
