type 'sol bound_info = {
  lower : float;
  candidate : ('sol * float) option;
}

type ('region, 'sol) oracle = {
  bound : 'region -> 'sol bound_info option;
  branch : 'region -> 'region list;
}

type params = {
  max_nodes : int;
  rel_gap : float;
  abs_gap : float;
  time_limit : float option;
  log_every : int;
  domains : int;
  max_frontier : int;
  seed_factor : int;
}

let default_params =
  { max_nodes = 100_000; rel_gap = 1e-6; abs_gap = 1e-12; time_limit = None;
    log_every = 0; domains = 1; max_frontier = 0; seed_factor = 4 }

type ('region, 'sol) faults = {
  policy : Fault.policy;
  retry_bound : (attempt:int -> 'region -> 'sol bound_info option) option;
  fallback_bound : ('region -> float) option;
}

let default_faults =
  { policy = Fault.default_policy; retry_bound = None; fallback_bound = None }

type stop_reason =
  | Proved_optimal
  | Gap_reached
  | Node_budget
  | Time_budget
  | Interrupted

let stop_reason_name = function
  | Proved_optimal -> "proved_optimal"
  | Gap_reached -> "gap_reached"
  | Node_budget -> "node_budget"
  | Time_budget -> "time_budget"
  | Interrupted -> "interrupted"

type stats = {
  infeasible_regions : int;
  bound_pruned : int;
  stale_pops : int;
  incumbent_updates : int;
  children_generated : int;
  domains_used : int;
  idle_wakeups : int;
  steals : int;
  stolen_nodes : int;
  seed_nodes : int;
  seed_seconds : float;
  targeted_wakeups : int;
  steals_best_victim : int;
  domain_targeted_wakeups : int array;
  domain_steals_best_victim : int array;
  domain_first_node_seconds : float array;
  oracle_failures : int;
  retries : int;
  degraded_bounds : int;
  dropped_regions : int;
  warm_start_hits : int;
  phase1_skipped : int;
  warm_pull_ins : int;
  warm_newton_corrections : int;
  warm_miss_no_parent : int;
  warm_miss_not_interior : int;
  warm_miss_fault_cleared : int;
  stolen_warm : int;
  counters_reset : bool;
  cert_verified : int;
  cert_repaired : int;
  cert_fallbacks : int;
  certified_sound : bool;
  frontier_shed : int;
  retry_budget_exhausted : int;
  retry_backoff_seconds : float;
  oracle_seconds : float;
  domain_oracle_seconds : float array;
  wall_seconds : float;
}

(* Every stats field, flat, in declaration order — the shape the bench
   records and the run ledger persist.  Keep in lockstep with [stats]:
   a new field that never reaches the ledger cannot be regression-
   diffed. *)
let stats_to_json (s : stats) =
  let open Obs.Json in
  let ints = List.map (fun v -> Int v) in
  let floats = List.map (fun v -> Float v) in
  Obj
    [
      ("infeasible_regions", Int s.infeasible_regions);
      ("bound_pruned", Int s.bound_pruned);
      ("stale_pops", Int s.stale_pops);
      ("incumbent_updates", Int s.incumbent_updates);
      ("children_generated", Int s.children_generated);
      ("domains_used", Int s.domains_used);
      ("idle_wakeups", Int s.idle_wakeups);
      ("steals", Int s.steals);
      ("stolen_nodes", Int s.stolen_nodes);
      ("seed_nodes", Int s.seed_nodes);
      ("seed_seconds", Float s.seed_seconds);
      ("targeted_wakeups", Int s.targeted_wakeups);
      ("steals_best_victim", Int s.steals_best_victim);
      ( "domain_targeted_wakeups",
        List (ints (Array.to_list s.domain_targeted_wakeups)) );
      ( "domain_steals_best_victim",
        List (ints (Array.to_list s.domain_steals_best_victim)) );
      ( "domain_first_node_seconds",
        List (floats (Array.to_list s.domain_first_node_seconds)) );
      ("oracle_failures", Int s.oracle_failures);
      ("retries", Int s.retries);
      ("degraded_bounds", Int s.degraded_bounds);
      ("dropped_regions", Int s.dropped_regions);
      ("warm_start_hits", Int s.warm_start_hits);
      ("phase1_skipped", Int s.phase1_skipped);
      ("warm_pull_ins", Int s.warm_pull_ins);
      ("warm_newton_corrections", Int s.warm_newton_corrections);
      ("warm_miss_no_parent", Int s.warm_miss_no_parent);
      ("warm_miss_not_interior", Int s.warm_miss_not_interior);
      ("warm_miss_fault_cleared", Int s.warm_miss_fault_cleared);
      ("stolen_warm", Int s.stolen_warm);
      ("counters_reset", Bool s.counters_reset);
      ("cert_verified", Int s.cert_verified);
      ("cert_repaired", Int s.cert_repaired);
      ("cert_fallbacks", Int s.cert_fallbacks);
      ("certified_sound", Bool s.certified_sound);
      ("frontier_shed", Int s.frontier_shed);
      ("retry_budget_exhausted", Int s.retry_budget_exhausted);
      ("retry_backoff_seconds", Float s.retry_backoff_seconds);
      ("oracle_seconds", Float s.oracle_seconds);
      ( "domain_oracle_seconds",
        List (floats (Array.to_list s.domain_oracle_seconds)) );
      ("wall_seconds", Float s.wall_seconds);
    ]

type oracle_counters = {
  warm_hits : int Atomic.t;
  phase1_skips : int Atomic.t;
  pull_ins : int Atomic.t;
  corrections : int Atomic.t;
  miss_no_parent : int Atomic.t;
  miss_not_interior : int Atomic.t;
  miss_fault_cleared : int Atomic.t;
  oracle_time_us : int Atomic.t;
  cert_verified : int Atomic.t;
  cert_repaired : int Atomic.t;
  cert_fallbacks : int Atomic.t;
  certified_sound : bool Atomic.t;
      (* True while every pruning decision of the search (including any
         resumed-from prefix) rested on a verified dual certificate or
         a certified interval fallback.  Cleared — never re-set — when
         the oracle runs with certification disabled or the resume
         chain passes through a pre-certificate snapshot whose frontier
         keys have unknown provenance. *)
}

let oracle_counters () =
  {
    warm_hits = Atomic.make 0;
    phase1_skips = Atomic.make 0;
    pull_ins = Atomic.make 0;
    corrections = Atomic.make 0;
    miss_no_parent = Atomic.make 0;
    miss_not_interior = Atomic.make 0;
    miss_fault_cleared = Atomic.make 0;
    oracle_time_us = Atomic.make 0;
    cert_verified = Atomic.make 0;
    cert_repaired = Atomic.make 0;
    cert_fallbacks = Atomic.make 0;
    certified_sound = Atomic.make true;
  }

let count_warm_start_hit oc = Atomic.incr oc.warm_hits
let count_phase1_skipped oc = Atomic.incr oc.phase1_skips
let count_warm_pull_in oc = Atomic.incr oc.pull_ins
let count_warm_newton_correction oc = Atomic.incr oc.corrections
let count_warm_miss_no_parent oc = Atomic.incr oc.miss_no_parent
let count_warm_miss_not_interior oc = Atomic.incr oc.miss_not_interior
let count_warm_miss_fault_cleared oc = Atomic.incr oc.miss_fault_cleared
let count_cert_verified oc = Atomic.incr oc.cert_verified
let count_cert_repaired oc = Atomic.incr oc.cert_repaired
let mark_uncertified oc = Atomic.set oc.certified_sound false

type 'sol result = {
  best : ('sol * float) option;
  bound : float;
  gap : float;
  nodes_explored : int;
  stop_reason : stop_reason;
  stats : stats;
}

type checkpointing = {
  path : string;
  every_nodes : int;
  fingerprint : string;
  save_on_stop : bool;
}

let checkpointing ?(every_nodes = 0) ?(save_on_stop = true) ~fingerprint path =
  { path; every_nodes; fingerprint; save_on_stop }

let src = Logs.Src.create "ldafp.bnb" ~doc:"branch-and-bound driver"

module Log = (val Logs.src_log src : Logs.LOG)

(* Budgets are wall-clock: [Sys.time] is process CPU time, which both
   overshoots wall budgets on a busy machine and inflates ~N× once N
   domains burn CPU concurrently.  Monotonic rather than
   [Unix.gettimeofday]: an NTP step mid-search would otherwise stretch
   or shrink the time budget (and could make [elapsed] negative). *)
let now () = Obs.Clock.now ()

(* Solver-stack metrics, registered eagerly at module init (single
   threaded; concurrent [Lazy.force] is unsafe in OCaml 5).  They only
   record when [Obs.Metrics.enabled ()] — call sites guard on it so the
   disabled path allocates nothing.  Glossary: doc/observability.mld. *)
let m_node_seconds =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1e-6 ~hi:100.0
    ~help:"wall time to expand one B&B node (branch + bound all children)"
    "ldafp_bnb_node_seconds"

let m_bound_seconds =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1e-7 ~hi:100.0
    ~help:"wall time of one policy-guarded bound-oracle call"
    "ldafp_bnb_bound_seconds"

let m_incumbents =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"incumbent improvements installed" "ldafp_bnb_incumbent_total"

let m_fault_retries =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"oracle calls retried by the containment policy"
    "ldafp_fault_retry_total"

let m_fault_degraded =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"regions degraded to the certified fallback bound"
    "ldafp_fault_degrade_total"

let m_fault_dropped =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"regions dropped after exhausting the containment policy"
    "ldafp_fault_drop_total"

let m_cert_fallbacks =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"regions degraded or dropped because their dual certificate failed"
    "ldafp_fault_cert_fallback_total"

let m_frontier_shed =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"queued regions shed by the bounded-memory frontier cap"
    "ldafp_bnb_frontier_shed_total"

let m_seed_seconds =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1e-6 ~hi:100.0
    ~help:"wall time of the pre-worker frontier seeding phase"
    "ldafp_bnb_seed_seconds"

(* One line for [Obs.Progress]: the search-wide picture an operator
   needs to decide whether a long run is still converging. *)
let progress_line ~nodes ~elapsed ~incumbent ~bound ~steals ~oracle_us =
  let rate = if elapsed > 0.0 then float_of_int nodes /. elapsed else 0.0 in
  let gap =
    if incumbent < Float.infinity then incumbent -. bound else Float.infinity
  in
  let util us =
    100.0 *. Float.min 1.0 (float_of_int us *. 1e-6 /. Float.max 1e-9 elapsed)
  in
  let utils =
    String.concat "/"
      (Array.to_list
         (Array.map (fun us -> Printf.sprintf "%.0f%%" (util us)) oracle_us))
  in
  Printf.sprintf
    "[bnb] %6.1fs  nodes %d (%.0f/s)  incumbent %.6g  bound %.6g  gap %.3g  \
     steals %d  oracle-util %s"
    elapsed nodes rate incumbent bound gap steals utils

(* ------------------------------------------------------------------ *)
(* Fault containment around the oracle                                 *)
(* ------------------------------------------------------------------ *)

(* Outcome of a policy-guarded [bound] call: [Dropped_bound] means the
   policy ran out of options and abandoned the region (already counted). *)
type 'sol guarded = Bounded of 'sol bound_info option | Dropped_bound

(* A NaN candidate cost is poison: it compares false with everything, so
   it can neither be installed nor pruned coherently.  Strip it, keep the
   (valid) bound, and count the bad invocation.  [+infinity] candidates
   pass through — they are merely useless, never winning a comparison. *)
let sanitize_candidate (fc : Fault.counters) = function
  | Some { lower; candidate = Some (_, c) } when Float.is_nan c ->
      Atomic.incr fc.Fault.failures;
      Log.warn (fun m -> m "discarding candidate with NaN cost");
      Some { lower; candidate = None }
  | info -> info

(* Capped-exponential backoff before a retry, charged to the shared
   fault counters so operators can see how much wall-clock containment
   cost.  Sleeping holds no lock (the caller's in-flight slot is not a
   lock); siblings keep exploring. *)
let sleep_backoff (policy : Fault.policy) (fc : Fault.counters) ~attempt =
  let d = Fault.backoff_delay policy ~attempt in
  if d > 0.0 then begin
    Unix.sleepf d;
    ignore (Atomic.fetch_and_add fc.Fault.backoff_ns (int_of_float (d *. 1e9)))
  end

(* Per-expansion retry budget: [!budget > 0] retries remain; [0] just
   ran out (count the exhaustion once, then mark with -1). *)
let budget_allows (fc : Fault.counters) budget =
  if !budget > 0 then true
  else begin
    if !budget = 0 then begin
      budget := -1;
      Atomic.incr fc.Fault.budget_exhausted;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"fault" "fault.budget_exhausted"
    end;
    false
  end

let guarded_bound ~(faults : _ faults) ~(fc : Fault.counters)
    ~(oc : oracle_counters) ~(budget : int ref) (oracle : _ oracle) region =
  let policy = faults.policy in
  let call attempt =
    let f =
      if attempt = 0 then oracle.bound
      else
        match faults.retry_bound with
        | Some retry -> retry ~attempt
        | None -> oracle.bound
    in
    match f region with
    | Some { lower; _ }
      when Float.is_nan lower || lower = Float.neg_infinity ->
        Error (Fault.Non_finite_bound lower, None)
    | info -> Ok info
    | exception (Fault.Certificate_error msg as e) ->
        Error (Fault.Certificate_failed msg, Some e)
    | exception e when Fault.containable e ->
        Error (Fault.Oracle_raised (Printexc.to_string e), Some e)
  in
  let rec attempt k =
    match call k with
    | Ok info -> Bounded (sanitize_candidate fc info)
    | Error (failure, original) ->
        Atomic.incr fc.Fault.failures;
        Log.debug (fun m ->
            m "bound failure (attempt %d): %s" (k + 1) (Fault.describe failure));
        if k < policy.Fault.max_retries && budget_allows fc budget then begin
          decr budget;
          Atomic.incr fc.Fault.retries;
          if Obs.Metrics.enabled () then Obs.Metrics.incr m_fault_retries;
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~cat:"fault" "fault.retry"
              ~args:[ ("attempt", Obs.Trace.Int (k + 1)) ];
          sleep_backoff policy fc ~attempt:(k + 1);
          attempt (k + 1)
        end
        else begin
          (* A certificate failure that ends in degrade or drop is a
             certified-fallback event: the primal solve's bound was
             discarded in favour of the (certified) interval fallback,
             or the region died.  Either way the search never pruned on
             an unverified value — count it, don't poison
             [certified_sound]. *)
          let note_cert_fallback () =
            match failure with
            | Fault.Certificate_failed _ ->
                Atomic.incr oc.cert_fallbacks;
                if Obs.Metrics.enabled () then Obs.Metrics.incr m_cert_fallbacks;
                if Obs.Trace.enabled () then
                  Obs.Trace.instant ~cat:"fault" "fault.cert_fallback"
            | _ -> ()
          in
          let degraded =
            if not policy.Fault.degrade then None
            else
              match faults.fallback_bound with
              | None -> None
              | Some fb -> (
                  match fb region with
                  | lb when Float.is_nan lb || lb = Float.neg_infinity -> None
                  | lb -> Some lb
                  | exception e when Fault.containable e ->
                      Log.warn (fun m ->
                          m "fallback bound itself failed: %s"
                            (Printexc.to_string e));
                      None)
          in
          match degraded with
          | Some lb ->
              note_cert_fallback ();
              Atomic.incr fc.Fault.degraded;
              if Obs.Metrics.enabled () then Obs.Metrics.incr m_fault_degraded;
              if Obs.Trace.enabled () then
                Obs.Trace.instant ~cat:"fault" "fault.degrade"
                  ~args:[ ("fallback_bound", Obs.Trace.Float lb) ];
              Log.debug (fun m ->
                  m "degraded region to fallback bound %.6g after: %s" lb
                    (Fault.describe failure));
              Bounded (Some { lower = lb; candidate = None })
          | None ->
              if policy.Fault.reraise then
                match original with
                | Some e -> raise e
                | None -> failwith ("Bnb: " ^ Fault.describe failure)
              else begin
                note_cert_fallback ();
                Atomic.incr fc.Fault.dropped;
                if Obs.Metrics.enabled () then Obs.Metrics.incr m_fault_dropped;
                if Obs.Trace.enabled () then
                  Obs.Trace.instant ~cat:"fault" "fault.drop"
                    ~args:[ ("attempts", Obs.Trace.Int (k + 1)) ];
                Log.warn (fun m ->
                    m "dropping region after %d attempt(s): %s" (k + 1)
                      (Fault.describe failure));
                Dropped_bound
              end
        end
  in
  attempt 0

(* Cumulative oracle wall-time, accumulated in integer microseconds so
   parallel workers can add without a lock (no atomic float add).
   [?cell] additionally attributes the time to the calling worker's
   private accumulator — the per-domain utilization numbers.  Timed in
   integer nanoseconds off the monotonic clock, so the measurement
   itself never allocates. *)
let timed_guarded_bound ?cell ~faults ~fc ~(oc : oracle_counters) ~budget
    oracle region =
  let t0 = Obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dns = Obs.Clock.now_ns () - t0 in
      let dus = dns / 1000 in
      ignore (Atomic.fetch_and_add oc.oracle_time_us dus);
      (match cell with Some c -> c := !c + dus | None -> ());
      if Obs.Trace.enabled () then
        Obs.Trace.complete ~cat:"bnb" "bnb.bound" ~t0_ns:t0 ~dur_ns:dns;
      if Obs.Metrics.enabled () then
        Obs.Metrics.observe m_bound_seconds (float_of_int dns *. 1e-9))
    (fun () -> guarded_bound ~faults ~fc ~oc ~budget oracle region)

let guarded_branch ~(faults : _ faults) ~(fc : Fault.counters) ~budget oracle
    region =
  let policy = faults.policy in
  let rec attempt k =
    match oracle.branch region with
    | children -> children
    | exception e when Fault.containable e ->
        Atomic.incr fc.Fault.failures;
        Log.debug (fun m ->
            m "branch failure (attempt %d): %s" (k + 1) (Printexc.to_string e));
        if k < policy.Fault.max_retries && budget_allows fc budget then begin
          decr budget;
          Atomic.incr fc.Fault.retries;
          sleep_backoff policy fc ~attempt:(k + 1);
          attempt (k + 1)
        end
        else if policy.Fault.reraise then raise e
        else begin
          Atomic.incr fc.Fault.dropped;
          Log.warn (fun m ->
              m "dropping unsplittable region after %d attempt(s): %s" (k + 1)
                (Printexc.to_string e));
          []
        end
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* Checkpoint plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* The search either starts fresh from a root region (bounded first, as
   callers may rely on — e.g. to install a seeded incumbent) or restores
   a frontier whose entries were already bounded before the snapshot. *)
type ('region, 'sol) source =
  | Root of 'region
  | Restored of ('region, 'sol) Checkpoint.state

(* A shed-frontier bound is a float that must survive the int-counter
   checkpoint schema bit-exactly (rounding it could claim a gap the
   search did not prove).  Split the IEEE bit pattern across two
   counters — each half fits comfortably in OCaml's 63-bit int. *)
let float_to_counters x =
  let bits = Int64.bits_of_float x in
  ( Int64.to_int (Int64.shift_right_logical bits 32),
    Int64.to_int (Int64.logand bits 0xFFFFFFFFL) )

let float_of_counters hi lo =
  Int64.float_of_bits
    (Int64.logor
       (Int64.shift_left (Int64.of_int hi) 32)
       (Int64.logand (Int64.of_int lo) 0xFFFFFFFFL))

let counters_alist ~infeasible ~pruned ~stale ~updates ~children ~reset
    ~shed ~shed_bound ~seed_nodes ~seed_us ~(fc : Fault.counters)
    ~(oc : oracle_counters) =
  let shed_hi, shed_lo = float_to_counters shed_bound in
  [
    (* Sticky: once a resume hit a pre-schema snapshot, every later
       snapshot in the chain records that the warm counters restarted. *)
    ("counters_reset", Bool.to_int reset);
    ("infeasible_regions", infeasible);
    ("bound_pruned", pruned);
    ("stale_pops", stale);
    ("incumbent_updates", updates);
    ("children_generated", children);
    ("oracle_failures", Atomic.get fc.Fault.failures);
    ("retries", Atomic.get fc.Fault.retries);
    ("degraded_bounds", Atomic.get fc.Fault.degraded);
    ("dropped_regions", Atomic.get fc.Fault.dropped);
    ("retry_budget_exhausted", Atomic.get fc.Fault.budget_exhausted);
    ("retry_backoff_ns", Atomic.get fc.Fault.backoff_ns);
    ("warm_start_hits", Atomic.get oc.warm_hits);
    ("phase1_skipped", Atomic.get oc.phase1_skips);
    ("warm_pull_ins", Atomic.get oc.pull_ins);
    ("warm_newton_corrections", Atomic.get oc.corrections);
    ("warm_miss_no_parent", Atomic.get oc.miss_no_parent);
    ("warm_miss_not_interior", Atomic.get oc.miss_not_interior);
    ("warm_miss_fault_cleared", Atomic.get oc.miss_fault_cleared);
    ("oracle_time_us", Atomic.get oc.oracle_time_us);
    ("cert_verified", Atomic.get oc.cert_verified);
    ("cert_repaired", Atomic.get oc.cert_repaired);
    ("cert_fallbacks", Atomic.get oc.cert_fallbacks);
    ("certified_sound", Bool.to_int (Atomic.get oc.certified_sound));
    ("frontier_shed", shed);
    ("shed_bound_hi", shed_hi);
    ("shed_bound_lo", shed_lo);
    (* Seed-phase totals, cumulative across a resume chain.  Time in
       integer microseconds: the counter schema is int-only, and a
       microsecond of seeding is far below measurement noise. *)
    ("seed_nodes", seed_nodes);
    ("seed_time_us", seed_us);
  ]

(* The warm/miss counter keys whose absence marks a pre-oracle-counter
   checkpoint.  [Checkpoint.counter] degrades each missing key to 0 so
   such snapshots still resume — but then every rate computed over the
   chain (warm_hit_rate above all) silently mixes a zeroed prefix with
   live counts.  Resuming one therefore raises the explicit
   [counters_reset] marker instead of merging silently; surfaced by
   [ldafp train]. *)
let warm_counter_keys =
  [
    "warm_start_hits"; "phase1_skipped"; "warm_pull_ins";
    "warm_newton_corrections"; "warm_miss_no_parent";
    "warm_miss_not_interior"; "warm_miss_fault_cleared";
  ]

(* The certificate-accounting keys.  A snapshot missing any of them
   predates the certified-pruning schema: its frontier keys may have
   been produced by the old trusting formula, so resuming through one
   both raises the sticky [counters_reset] marker and clears
   [certified_sound] for the rest of the chain. *)
let cert_counter_keys =
  [ "cert_verified"; "cert_repaired"; "cert_fallbacks"; "certified_sound" ]

(* The seed-phase accounting keys.  A snapshot missing them predates the
   eager-seeding scheduler; the totals restart at zero, so resuming one
   raises the sticky [counters_reset] marker like the other schema
   upgrades (seeding itself is unaffected — only the cumulative
   accounting is). *)
let seed_counter_keys = [ "seed_nodes"; "seed_time_us" ]

(* Returned per-run restore state: plain counters, pre-resume elapsed
   time, sticky reset marker, the shed-frontier residue
   [(shed_count, shed_bound)] the resumed run must keep folding into
   its reported bound, and the cumulative seed totals
   [(seed_nodes, seed_us)]. *)
let restore_counters (fc : Fault.counters) (oc : oracle_counters) = function
  | Root _ -> (0, 0, 0, 0, 0, 0.0, false, (0, Float.infinity), (0, 0))
  | Restored (s : _ Checkpoint.state) ->
      let c = Checkpoint.counter s in
      Atomic.set fc.Fault.failures (c "oracle_failures");
      Atomic.set fc.Fault.retries (c "retries");
      Atomic.set fc.Fault.degraded (c "degraded_bounds");
      Atomic.set fc.Fault.dropped (c "dropped_regions");
      Atomic.set fc.Fault.budget_exhausted (c "retry_budget_exhausted");
      Atomic.set fc.Fault.backoff_ns (c "retry_backoff_ns");
      Atomic.set oc.warm_hits (c "warm_start_hits");
      Atomic.set oc.phase1_skips (c "phase1_skipped");
      Atomic.set oc.pull_ins (c "warm_pull_ins");
      Atomic.set oc.corrections (c "warm_newton_corrections");
      Atomic.set oc.miss_no_parent (c "warm_miss_no_parent");
      Atomic.set oc.miss_not_interior (c "warm_miss_not_interior");
      Atomic.set oc.miss_fault_cleared (c "warm_miss_fault_cleared");
      Atomic.set oc.oracle_time_us (c "oracle_time_us");
      Atomic.set oc.cert_verified (c "cert_verified");
      Atomic.set oc.cert_repaired (c "cert_repaired");
      Atomic.set oc.cert_fallbacks (c "cert_fallbacks");
      let cert_schema_ok =
        List.for_all (Checkpoint.has_counter s) cert_counter_keys
      in
      (* Only ever clear: a caller that already marked the search
         uncertified (certification disabled) must stay so. *)
      if not (cert_schema_ok && c "certified_sound" <> 0) then
        Atomic.set oc.certified_sound false;
      let reset =
        (not (List.for_all (Checkpoint.has_counter s) warm_counter_keys))
        || (not cert_schema_ok)
        || (not (List.for_all (Checkpoint.has_counter s) seed_counter_keys))
        || c "counters_reset" <> 0
      in
      let shed = c "frontier_shed" in
      let shed_bound =
        if shed > 0 then float_of_counters (c "shed_bound_hi") (c "shed_bound_lo")
        else Float.infinity
      in
      ( c "infeasible_regions", c "bound_pruned", c "stale_pops",
        c "incumbent_updates", c "children_generated", s.Checkpoint.elapsed,
        reset, (shed, shed_bound), (c "seed_nodes", c "seed_time_us") )

(* A failed snapshot must not kill a multi-hour search: log and carry on
   (the previous checkpoint, if any, is intact thanks to tmp + rename). *)
let try_save ck state =
  try Checkpoint.save ~path:ck.path state
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    Log.warn (fun m -> m "checkpoint save to %s failed: %s" ck.path msg)

let stop_wants_save = function
  | Node_budget | Time_budget | Interrupted -> true
  | Proved_optimal | Gap_reached -> false

(* ------------------------------------------------------------------ *)
(* Search driver                                                       *)
(* ------------------------------------------------------------------ *)

(* The calling domain plus [workers - 1] spawned domains run the same
   worker loop over a sharded work-stealing Work_deque: each worker
   pushes its own expansions to its own shard and pops locally, stealing
   the best half of a victim's shard only when dry, so in steady state no
   lock or cache line is shared between workers.  One worker (the
   default [domains = 1]) owns the only shard, never steals or parks,
   and expands nodes in plain best-first order.  Search-wide state is
   synchronized through atomics: the incumbent cost mirror (CAS-checked
   under a dedicated incumbent mutex on update, read lock-free for
   pruning), the per-shard frontier-bound mirrors feeding the gap test
   (conservative at every instant, exact with one shard — see
   Work_deque), the explored-node
   counter, and a write-once stop reason.  Per-worker statistics live in
   single-writer records merged after the joins, so hot-path counter
   bumps are plain stores.

   The node budget is checked before claiming a node; workers already
   mid-expansion finish, so the budget can overshoot by at most
   [workers - 1] nodes — the price of not serializing the hot path.

   Fault containment: oracle calls are policy-guarded, and the in-flight
   slot of an expanding worker is released in a [Fun.protect] finaliser,
   so even a non-containable exception keeps the live count exact; the
   worker then closes the deque (waking parked siblings) before the
   exception propagates — one poisoned region can never hang the
   search. *)
let run_par : type region sol.
    params:params ->
    faults:(region, sol) faults ->
    checkpointing:checkpointing option ->
    interrupt:(unit -> bool) option ->
    counters:oracle_counters option ->
    progress:Obs.Progress.t option ->
    carries_warm:(region -> bool) option ->
    (region, sol) oracle ->
    (region, sol) source ->
    sol result =
 fun ~params ~faults ~checkpointing ~interrupt ~counters ~progress
     ~carries_warm oracle source ->
  let workers = max 1 params.domains in
  let deque : region Work_deque.t =
    Work_deque.create ?carries_warm ~workers ()
  in
  let fc = Fault.fresh_counters () in
  let oc = match counters with Some c -> c | None -> oracle_counters () in
  let ( infeasible0, pruned0, stale0, updates0, children0, elapsed0, reset0,
        (shed0, shed_bound0), (seed0_nodes, seed0_us) ) =
    restore_counters fc oc source
  in
  (* Bounded-memory frontier residue: nodes shed by the cap are gone,
     but their best possible subtree optimum survives here and is folded
     into every bound and gap the search reports.  CAS-min so any worker
     can fold its shard's shed bound in without a lock. *)
  let shed_bound = Atomic.make shed_bound0 in
  let rec fold_shed_bound b =
    let cur = Atomic.get shed_bound in
    if b < cur && not (Atomic.compare_and_set shed_bound cur b) then
      fold_shed_bound b
  in
  (* Per-shard queue cap: the global budget split evenly; each worker
     polices only its own shard, so shedding needs no global lock. *)
  let shard_cap =
    if params.max_frontier <= 0 then 0
    else max 1 (params.max_frontier / workers)
  in
  (* The incumbent solution is guarded by its own mutex; its cost is
     mirrored in an Atomic read lock-free on every stale check, push
     decision and gap test. *)
  let inc_lock = Mutex.create () in
  let incumbent =
    ref (match source with Root _ -> None | Restored s -> s.Checkpoint.incumbent)
  in
  let incumbent_cost =
    Atomic.make
      (match !incumbent with Some (_, c) -> c | None -> Float.infinity)
  in
  let nodes =
    Atomic.make
      (match source with Root _ -> 0 | Restored s -> s.Checkpoint.nodes_explored)
  in
  let start_time = now () in
  let run_t0_ns = Obs.Clock.now_ns () in
  let elapsed () = elapsed0 +. (now () -. start_time) in
  let stop : stop_reason option Atomic.t = Atomic.make None in
  (* Current-run seed accounting; the restored totals are added on the
     way out (and into every checkpoint). *)
  let seed_nodes_run = ref 0 in
  let seed_us_run = ref 0 in
  (* Per-worker single-writer statistics; merged after the joins.
     Records (not an int array) so counters of one worker share no cache
     line with another's. *)
  let module W = struct
    type t = {
      mutable infeasible : int;
      mutable pruned : int;
      mutable stale : int;
      mutable updates : int;
      mutable children : int;
      mutable shed : int;
      mutable first_node_us : int;
          (* run start -> this worker's first node expansion; -1 while
             none — the time-to-first-node startup diagnostic *)
      oracle_cell : int ref;
    }
  end in
  let ws =
    Array.init workers (fun _ ->
        {
          W.infeasible = 0;
          pruned = 0;
          stale = 0;
          updates = 0;
          children = 0;
          shed = 0;
          first_node_us = -1;
          oracle_cell = ref 0;
        })
  in
  (* The queue a loop works on: the seed phase's private heap, or one
     worker's shard of the deque.  The stop test, the expansion step and
     the periodic checkpoint take it as an argument, so the seed loop and
     the worker loop share a single copy of each. *)
  let module Q = struct
    type t = {
      worker : int;  (* the worker whose statistics the loop charges *)
      push : float -> region -> unit;
      release : unit -> unit;  (* a popped region is done with *)
      exhausted : unit -> bool;  (* no live work left anywhere *)
      bound : unit -> float;
          (* frontier minimum, cheap; may read above the truth while
             steals run (Work_deque.frontier_bound) *)
      exact_bound : unit -> float;
          (* frontier minimum at one instant, for confirming a stop *)
      length : unit -> int;  (* queued regions, for the debug log *)
      shed : unit -> (int * float) option;
          (* enforce the frontier cap: [(dropped, min_dropped_key)] *)
      snapshot : unit -> (float * region) array;  (* the live frontier *)
    }
  end in
  (* Reads of siblings' plain counter fields (periodic checkpoints, the
     final merge before the last join is not one — it runs after joins)
     may be stale by a few increments; fine for diagnostics.  The node
     counter, fault counters and oracle counters are atomics and exact. *)
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 ws in
  let merged_counters () =
    counters_alist
      ~infeasible:(infeasible0 + sum (fun w -> w.W.infeasible))
      ~pruned:(pruned0 + sum (fun w -> w.W.pruned))
      ~stale:(stale0 + sum (fun w -> w.W.stale))
      ~updates:(updates0 + sum (fun w -> w.W.updates))
      ~children:(children0 + sum (fun w -> w.W.children))
      ~reset:reset0
      ~shed:(shed0 + sum (fun w -> w.W.shed))
      ~shed_bound:(Atomic.get shed_bound)
      ~seed_nodes:(seed0_nodes + !seed_nodes_run)
      ~seed_us:(seed0_us + !seed_us_run) ~fc ~oc
  in
  let consider_candidate (w : W.t) = function
    | Some (sol, cost) when cost < Atomic.get incumbent_cost ->
        let improved =
          Mutex.lock inc_lock;
          (* Re-check under the lock: a sibling may have won the race. *)
          let better = cost < Atomic.get incumbent_cost in
          if better then begin
            incumbent := Some (sol, cost);
            Atomic.set incumbent_cost cost;
            w.W.updates <- w.W.updates + 1;
            if Obs.Metrics.enabled () then Obs.Metrics.incr m_incumbents;
            if Obs.Telemetry.enabled () then Obs.Telemetry.set_incumbent cost;
            if Obs.Trace.enabled () then
              Obs.Trace.instant ~cat:"bnb" "bnb.incumbent"
                ~args:[ ("cost", Obs.Trace.Float cost) ]
          end;
          Mutex.unlock inc_lock;
          better
        in
        (* New incumbent: drop the queued regions it dominates.  Prune
           outside inc_lock: shard locks are leaves, but keeping inc_lock
           out of any nesting makes the no-deadlock argument one-line.
           Concurrent pruning passes compose (both only remove dominated
           entries). *)
        if improved then Work_deque.prune deque (fun lb _ -> lb < cost)
    | _ -> ()
  in
  let record_bounded (q : Q.t) (w : W.t) region = function
    | None -> w.W.infeasible <- w.W.infeasible + 1
    | Some { lower; candidate } ->
        consider_candidate w candidate;
        if lower < Atomic.get incumbent_cost then q.Q.push lower region
        else w.W.pruned <- w.W.pruned + 1
  in
  (* Eager frontier seeding: before any worker starts, the calling
     domain best-first expands a private local queue until it holds
     enough nodes to give every shard a meaningful slice
     ([seed_factor * workers]), then deals them round-robin by bound
     rank.  Without this the search begins with a single root node and
     the first milliseconds are pure startup serialization: one shard
     works while the others park, wake, and thrash half-empty steals. *)
  let seedq : region Pqueue.t = Pqueue.create () in
  let seed_q =
    {
      Q.worker = 0;
      push = Pqueue.push seedq;
      release = ignore;
      exhausted = (fun () -> Pqueue.is_empty seedq);
      bound = (fun () -> Pqueue.min_key seedq);
      exact_bound = (fun () -> Pqueue.min_key seedq);
      length = (fun () -> Pqueue.length seedq);
      shed =
        (fun () ->
          if params.max_frontier > 0 && Pqueue.length seedq > params.max_frontier
          then Some (Pqueue.drop_worst seedq ~keep:params.max_frontier)
          else None);
      snapshot =
        (fun () ->
          Array.of_list (Pqueue.fold (fun acc k v -> (k, v) :: acc) [] seedq));
    }
  in
  let shard_q i =
    {
      Q.worker = i;
      push = Work_deque.push deque ~worker:i;
      release = (fun () -> Work_deque.release deque ~worker:i);
      exhausted = (fun () -> Work_deque.drained deque);
      bound = (fun () -> Work_deque.frontier_bound deque);
      exact_bound = (fun () -> Work_deque.exact_bound deque);
      length = (fun () -> Work_deque.queue_length deque);
      shed =
        (fun () ->
          if shard_cap > 0 then Work_deque.shed deque ~worker:i ~keep:shard_cap
          else None);
      snapshot = (fun () -> Array.of_list (Work_deque.snapshot deque));
    }
  in
  (match source with
  | Root root ->
      (* The root is bounded on the calling domain before anything else
         (callers may rely on the root bound running first, e.g. to
         install a seeded incumbent). *)
      (match
         timed_guarded_bound ~cell:ws.(0).W.oracle_cell ~faults ~fc ~oc
           ~budget:(ref faults.policy.Fault.retry_budget) oracle root
       with
      | Dropped_bound -> ()
      | Bounded info -> record_bounded seed_q ws.(0) root info)
  | Restored s ->
      (* A restored frontier enters the seed queue too: if it is
         already large enough the seed loop exits immediately and the
         dealer scatters it by bound rank; if the snapshot was taken
         early (even mid-seed) the loop grows it first. *)
      Array.iter
        (fun (lb, region) -> Pqueue.push seedq lb region)
        s.Checkpoint.frontier);
  (* Checkpoint snapshot ordering: frontier FIRST, then incumbent.  The
     frontier snapshot holds all shard locks, so it is internally
     consistent; reading the incumbent afterwards guarantees it is at
     least as good as whatever incumbent pruned that frontier — so no
     region dominated only by an unsaved incumbent can be missing its
     dominator on resume.  The reverse order can lose the optimum:
     incumbent read, sibling improves it and prunes, frontier saved
     without the pruned region or the new incumbent. *)
  let snapshot_state ~frontier ck =
    let inc =
      Mutex.lock inc_lock;
      let i = !incumbent in
      Mutex.unlock inc_lock;
      i
    in
    {
      Checkpoint.fingerprint = ck.fingerprint;
      frontier;
      incumbent = inc;
      nodes_explored = Atomic.get nodes;
      counters = merged_counters ();
      elapsed = elapsed ();
    }
  in
  (* Periodic saves race against each other only through [save_lock]:
     whoever gets it checks the cadence; everyone else skips (try_lock)
     rather than queueing up behind a disk write. *)
  let save_lock = Mutex.create () in
  let last_saved_nodes = ref (Atomic.get nodes) in
  let maybe_periodic_save (q : Q.t) =
    match checkpointing with
    | Some ck when ck.every_nodes > 0 ->
        if Mutex.try_lock save_lock then
          Fun.protect
            ~finally:(fun () -> Mutex.unlock save_lock)
            (fun () ->
              if Atomic.get nodes - !last_saved_nodes >= ck.every_nodes then begin
                last_saved_nodes := Atomic.get nodes;
                try_save ck (snapshot_state ~frontier:(q.Q.snapshot ()) ck)
              end)
    | _ -> ()
  in
  (* The reported frontier bound: shed subtrees count against it, so the
     search cannot declare a tolerance it only reached by throwing work
     away. *)
  let frontier_bound (q : Q.t) =
    Float.min (q.Q.bound ()) (Atomic.get shed_bound)
  in
  let gap_closed inc bound =
    let gap = inc -. bound in
    gap <= params.abs_gap || gap <= params.rel_gap *. Float.abs inc
  in
  let interrupted () = match interrupt with Some f -> f () | None -> false in
  (* Exhaustion is tested before the gap, so an exhausted search reports
     Proved_optimal, not Gap_reached against an infinite frontier
     bound.  The lock-free bound can read above the true minimum while a
     steal moves it between shards, so a gap it closes is confirmed
     against the exact bound before the search stops on it. *)
  let stop_due (q : Q.t) =
    let inc = Atomic.get incumbent_cost in
    if q.Q.exhausted () then Some Proved_optimal
    else if
      inc < Float.infinity
      && gap_closed inc (frontier_bound q)
      && gap_closed inc
           (Float.min (q.Q.exact_bound ()) (Atomic.get shed_bound))
    then Some Gap_reached
    else if Atomic.get nodes >= params.max_nodes then Some Node_budget
    else if
      match params.time_limit with
      | Some limit -> elapsed () > limit
      | None -> false
    then Some Time_budget
    else if interrupted () then Some Interrupted
    else None
  in
  (* First halt wins the stop reason; close is idempotent and wakes any
     parked sibling. *)
  let halt reason =
    ignore (Atomic.compare_and_set stop None (Some reason));
    Work_deque.close deque
  in
  (* A popped region dominated by a newer incumbent. *)
  let drop_stale (q : Q.t) =
    let w = ws.(q.Q.worker) in
    w.W.stale <- w.W.stale + 1;
    q.Q.release ()
  in
  let expand (q : Q.t) lb region =
    let w = ws.(q.Q.worker) in
    let n = 1 + Atomic.fetch_and_add nodes 1 in
    if w.W.first_node_us < 0 then
      w.W.first_node_us <- (Obs.Clock.now_ns () - run_t0_ns) / 1000;
    if params.log_every > 0 && n mod params.log_every = 0 then
      Log.debug (fun m ->
          m "node %d [w%d]: bound %.6g incumbent %.6g queued %d" n q.Q.worker
            lb (Atomic.get incumbent_cost) (q.Q.length ()));
    (* The in-flight slot is released in a finaliser: even if an
       exception escapes the guards (non-containable, or a [reraise]
       policy), the live count stays exact and the region's children —
       pushed before this finaliser runs — are never lost. *)
    let t_node = Obs.Clock.now_ns () in
    Fun.protect ~finally:q.Q.release (fun () ->
        (* One retry budget per node expansion: the branch call and all
           child bounds draw from it, capping the worst-case time a
           pathological region can soak up. *)
        let budget = ref faults.policy.Fault.retry_budget in
        let children = guarded_branch ~faults ~fc ~budget oracle region in
        w.W.children <- w.W.children + List.length children;
        (* Bound each child outside any lock; push to our own queue
           immediately so siblings can steal fresh work and prune
           against fresh incumbents.  Warm-start state lives inside the
           region values, so it migrates with steals for free. *)
        List.iter
          (fun child ->
            match
              timed_guarded_bound ~cell:w.W.oracle_cell ~faults ~fc ~oc
                ~budget oracle child
            with
            | Dropped_bound -> ()
            | Bounded info -> record_bounded q w child info)
          children;
        match q.Q.shed () with
        | None -> ()
        | Some (dropped, min_key) ->
            w.W.shed <- w.W.shed + dropped;
            fold_shed_bound min_key;
            if Obs.Metrics.enabled () then Obs.Metrics.add m_frontier_shed dropped;
            if Obs.Trace.enabled () then
              Obs.Trace.instant ~cat:"bnb" "bnb.frontier_shed"
                ~args:
                  [
                    ("worker", Obs.Trace.Int q.Q.worker);
                    ("dropped", Obs.Trace.Int dropped);
                    ("shed_bound", Obs.Trace.Float (Atomic.get shed_bound));
                  ]);
    (* Exactly one node-seconds observation per explored node (the CI
       schema gate compares the histogram count against the reported
       node counts). *)
    let node_ns = Obs.Clock.now_ns () - t_node in
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~cat:"bnb" "bnb.node" ~t0_ns:t_node ~dur_ns:node_ns
        ~args:[ ("node", Obs.Trace.Int n); ("lb", Obs.Trace.Float lb) ];
    if Obs.Metrics.enabled () then
      Obs.Metrics.observe m_node_seconds (float_of_int node_ns *. 1e-9);
    if Obs.Telemetry.enabled () then begin
      Obs.Telemetry.set_nodes (Atomic.get nodes);
      Obs.Telemetry.set_gap (Atomic.get incumbent_cost -. frontier_bound q)
    end;
    match progress with
    | Some p when Obs.Progress.due p ->
        Obs.Progress.emit p
          (progress_line ~nodes:(Atomic.get nodes) ~elapsed:(elapsed ())
             ~incumbent:(Atomic.get incumbent_cost) ~bound:(frontier_bound q)
             ~steals:(Work_deque.steals deque)
             ~oracle_us:(Array.map (fun w -> !(w.W.oracle_cell)) ws))
    | _ -> ()
  in
  let worker i () =
    let q = shard_q i in
    let rec loop () =
      if Work_deque.is_closed deque then ()
      else
        match stop_due q with
        | Some reason -> halt reason
        | None -> (
            let item =
              match Work_deque.take deque ~worker:i with
              | Some _ as it -> it
              | None -> Work_deque.try_steal deque ~thief:i
            in
            match item with
            | Some (lb, region) ->
                if lb >= Atomic.get incumbent_cost then drop_stale q
                else begin
                  expand q lb region;
                  maybe_periodic_save q
                end;
                loop ()
            | None -> (
                (* Nothing local, nothing to steal: park until a sibling
                   pushes, the search drains, or someone halts. *)
                match Work_deque.park deque ~worker:i with
                | `Drained -> halt Proved_optimal
                | `Closed -> ()
                | `Work -> loop ()))
    in
    (* An oracle exception must not leave sibling domains parked: close
       the deque, then re-raise (Domain.join propagates). *)
    try loop ()
    with e ->
      Work_deque.close deque;
      raise e
  in
  (* ---- Seed phase (single-threaded, on the calling domain) ---- *)
  (* Grow the seed queue best-first until it can feed every shard.  It
     runs the same stop test, expansion and checkpoint cadence as the
     workers — a snapshot taken mid-seed is indistinguishable from any
     other frontier snapshot.  A single shard has no sibling to deal to,
     so one worker seeds nothing: the root or the restored frontier goes
     straight to shard 0. *)
  let seed_target =
    if workers = 1 then 0 else max 1 (params.seed_factor * workers)
  in
  (* Cap expansions so a tree that prunes as fast as it branches (or
     never branches) cannot pin the whole search in the serial phase. *)
  let seed_cap = max 64 (8 * seed_target) in
  let seed_t0_ns = Obs.Clock.now_ns () in
  if Obs.Telemetry.enabled () then Obs.Telemetry.set_phase "seeding";
  let rec seed_loop () =
    if Pqueue.length seedq >= seed_target || !seed_nodes_run >= seed_cap then ()
    else
      match stop_due seed_q with
      | Some reason -> halt reason
      | None -> (
          match Pqueue.pop seedq with
          | None -> ()
          | Some (lb, region) ->
              if lb >= Atomic.get incumbent_cost then drop_stale seed_q
              else begin
                incr seed_nodes_run;
                expand seed_q lb region;
                seed_us_run := (Obs.Clock.now_ns () - seed_t0_ns) / 1000;
                maybe_periodic_save seed_q
              end;
              seed_loop ())
  in
  seed_loop ();
  (* Deal by bound rank, round-robin: consecutive ranks land on
     different shards, so every worker starts with a comparably
     promising slice of the frontier instead of queueing up to steal
     from shard 0.  Pre-start pushes from the setup thread are within
     the Work_deque ownership contract. *)
  Pqueue.drain seedq (fun rank lb region ->
      Work_deque.push deque ~worker:(rank mod workers) lb region);
  let seed_dur_ns = Obs.Clock.now_ns () - seed_t0_ns in
  seed_us_run := seed_dur_ns / 1000;
  if Obs.Trace.enabled () then
    Obs.Trace.complete ~cat:"bnb" "bnb.seed" ~t0_ns:seed_t0_ns
      ~dur_ns:seed_dur_ns
      ~args:
        [
          ("seed_nodes", Obs.Trace.Int !seed_nodes_run);
          ("frontier", Obs.Trace.Int (Work_deque.live deque));
        ];
  if Obs.Metrics.enabled () then
    Obs.Metrics.observe m_seed_seconds (float_of_int seed_dur_ns *. 1e-9);
  (* A stop raised mid-seed (or a search the seed loop already
     exhausted) skips the workers entirely; the dealt deque is still
     the authoritative frontier for the save-on-stop snapshot and the
     final bound. *)
  if Atomic.get stop <> None || Work_deque.drained deque then
    Work_deque.close deque
  else begin
    if Obs.Telemetry.enabled () then Obs.Telemetry.set_phase "searching";
    let spawned =
      Array.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    Array.iter Domain.join spawned
  end;
  let stop_reason =
    match Atomic.get stop with Some r -> r | None -> Proved_optimal
  in
  if Obs.Telemetry.enabled () then begin
    Obs.Telemetry.set_nodes (Atomic.get nodes);
    Obs.Telemetry.set_phase ("done:" ^ stop_reason_name stop_reason)
  end;
  (match checkpointing with
  | Some ck when ck.save_on_stop && stop_wants_save stop_reason ->
      (* All workers have joined: nothing is in flight, the shard queues
         are the complete frontier, and the merge is single-threaded and
         exact. *)
      try_save ck
        (snapshot_state
           ~frontier:(Array.of_list (Work_deque.snapshot deque))
           ck)
  | _ -> ());
  (* After the joins the deque is quiescent, but the batched mirrors may
     still be up to one publish epoch stale low: flush them so the
     reported bound/gap is the true frontier minimum, not a
     conservative under-estimate. *)
  Work_deque.sync_mirrors deque;
  let bound =
    let fb = Work_deque.frontier_bound deque in
    let b =
      if Work_deque.drained deque then
        (* Everything explored or pruned: the incumbent is optimal —
           unless subtrees were shed, whose residue caps the claim. *)
        Float.min (Atomic.get incumbent_cost) fb
      else fb
    in
    Float.min b (Atomic.get shed_bound)
  in
  let incumbent_cost = Atomic.get incumbent_cost in
  {
    best = !incumbent;
    bound;
    gap =
      (if incumbent_cost = Float.infinity then Float.infinity
       else incumbent_cost -. bound);
    nodes_explored = Atomic.get nodes;
    stop_reason;
    stats =
      {
        infeasible_regions = infeasible0 + sum (fun w -> w.W.infeasible);
        bound_pruned = pruned0 + sum (fun w -> w.W.pruned);
        stale_pops = stale0 + sum (fun w -> w.W.stale);
        incumbent_updates = updates0 + sum (fun w -> w.W.updates);
        children_generated = children0 + sum (fun w -> w.W.children);
        domains_used = workers;
        idle_wakeups = Work_deque.idle_wakeups deque;
        steals = Work_deque.steals deque;
        stolen_nodes = Work_deque.stolen_nodes deque;
        seed_nodes = seed0_nodes + !seed_nodes_run;
        seed_seconds = float_of_int (seed0_us + !seed_us_run) *. 1e-6;
        targeted_wakeups =
          Array.fold_left ( + ) 0 (Work_deque.targeted_wakeups deque);
        steals_best_victim =
          Array.fold_left ( + ) 0 (Work_deque.steals_best_victim deque);
        domain_targeted_wakeups = Work_deque.targeted_wakeups deque;
        domain_steals_best_victim = Work_deque.steals_best_victim deque;
        domain_first_node_seconds =
          Array.map
            (fun w ->
              if w.W.first_node_us < 0 then -1.0
              else float_of_int w.W.first_node_us *. 1e-6)
            ws;
        oracle_failures = Atomic.get fc.Fault.failures;
        retries = Atomic.get fc.Fault.retries;
        degraded_bounds = Atomic.get fc.Fault.degraded;
        dropped_regions = Atomic.get fc.Fault.dropped;
        warm_start_hits = Atomic.get oc.warm_hits;
        phase1_skipped = Atomic.get oc.phase1_skips;
        warm_pull_ins = Atomic.get oc.pull_ins;
        warm_newton_corrections = Atomic.get oc.corrections;
        warm_miss_no_parent = Atomic.get oc.miss_no_parent;
        warm_miss_not_interior = Atomic.get oc.miss_not_interior;
        warm_miss_fault_cleared = Atomic.get oc.miss_fault_cleared;
        stolen_warm = Work_deque.stolen_warm deque;
        counters_reset = reset0;
        cert_verified = Atomic.get oc.cert_verified;
        cert_repaired = Atomic.get oc.cert_repaired;
        cert_fallbacks = Atomic.get oc.cert_fallbacks;
        certified_sound = Atomic.get oc.certified_sound;
        frontier_shed = shed0 + sum (fun w -> w.W.shed);
        retry_budget_exhausted = Atomic.get fc.Fault.budget_exhausted;
        retry_backoff_seconds =
          float_of_int (Atomic.get fc.Fault.backoff_ns) *. 1e-9;
        oracle_seconds = float_of_int (Atomic.get oc.oracle_time_us) *. 1e-6;
        domain_oracle_seconds =
          Array.map (fun w -> float_of_int !(w.W.oracle_cell) *. 1e-6) ws;
        wall_seconds = elapsed ();
      };
  }

let minimize ?(params = default_params) ?(faults = default_faults)
    ?checkpointing ?interrupt ?counters ?progress ?carries_warm oracle root =
  run_par ~params ~faults ~checkpointing ~interrupt ~counters ~progress
    ~carries_warm oracle (Root root)

let resume ?(params = default_params) ?(faults = default_faults)
    ?checkpointing ?interrupt ?counters ?progress ?carries_warm oracle state =
  run_par ~params ~faults ~checkpointing ~interrupt ~counters ~progress
    ~carries_warm oracle (Restored state)
