open Linalg
open Fixedpoint
open Optim

type checkpoint_spec = {
  path : string;
  every_nodes : int;
  resume : bool;
}

let checkpoint_spec ?(every_nodes = 0) ?(resume = false) path =
  { path; every_nodes; resume }

type config = {
  seed_incumbent : bool;
  sweep_steps : int;
  polish_nodes : bool;
  polish_rounds : int;
  upper_via_socp : bool;
  t_min_width : float;
  t_branch_bias : float;
  secant_prune : bool;
  warm_start : bool;
  certify : bool;
  socp_params : Socp.params;
  bnb_params : Bnb.params;
  fault_policy : Fault.policy;
  checkpoint : checkpoint_spec option;
  inject_faults : Fault_inject.config option;
  progress : Obs.Progress.t option;
}

let default_config =
  {
    seed_incumbent = true;
    sweep_steps = 200;
    polish_nodes = true;
    polish_rounds = 2;
    upper_via_socp = false;
    t_min_width = 1e-4;
    t_branch_bias = 3.0;
    secant_prune = true;
    warm_start = true;
    certify = true;
    socp_params =
      { Socp.default_params with gap_tol = 1e-7;
        newton = { Newton.default_params with tol = 1e-9; max_iter = 60 } };
    bnb_params =
      { Bnb.default_params with max_nodes = 2000; rel_gap = 1e-3 };
    fault_policy = Fault.default_policy;
    checkpoint = None;
    inject_faults = None;
    progress = None;
  }

let quick_config =
  {
    default_config with
    sweep_steps = 80;
    bnb_params = { Bnb.default_params with max_nodes = 150; rel_gap = 1e-2 };
  }

type diagnostics = {
  nodes : int;
  bound : float;
  gap : float;
  stop_reason : Bnb.stop_reason;
  seed_cost : float option;
  train_seconds : float;
  search : Bnb.stats;
}

type outcome = { w : Vec.t; cost : float; diagnostics : diagnostics }

(* The warm state a node inherits from its parent: the relaxation
   optimum (primal side) together with the barrier weight the producing
   solve terminated at (the dual side — what {!Socp.restart_levels}
   turns into a ladder-rung skip).  Plain floats and arrays, so it
   marshals through {!Checkpoint} snapshots and migrates across
   {!Work_deque} steals without any special handling. *)
type warm_info = {
  point : Vec.t;
  tau_final : float;
      (* [Float.nan] when the point came from a phase-I [Unknown]
         (never centered on any ladder): restart_levels maps it to 0,
         a full ladder with only phase-I skipped *)
}

type node = {
  wbox : Fx_interval.t array;
  mutable trange : Interval.t;
      (* mutable: [bound] tightens it in place so [branch] sees the
         tightened interval *)
  root_t_width : float;
  mutable relax_w : warm_info option;
      (* relaxation optimum, cached by [bound] to guide [branch] *)
  mutable warm : warm_info option;
      (* the parent's relaxation optimum, inherited at branch time: the
         warm start for this node's bound solve.  Cleared by the fault
         retry hook so a retried node never reuses a point associated
         with a failed solve. *)
  mutable warm_tainted : bool;
      (* true iff [warm] was deliberately cleared by the fault retry
         hook — distinguishes "never had a parent point" from "had one
         and discarded it" in the warm-miss accounting *)
}

let src = Logs.Src.create "ldafp.solver" ~doc:"LDA-FP trainer"

module Log = (val Logs.src_log src : Logs.LOG)

let is_atomic node = Array.for_all Fx_interval.is_singleton node.wbox

(* Candidate generation: round a continuous point into the node box,
   evaluate exactly, optionally polish. *)
let candidate_of_point pb node point =
  let rounded = Ldafp_heuristics.round_into pb ~wbox:node.wbox point in
  match Ldafp_heuristics.evaluate pb rounded with
  | None ->
      (* The node-box rounding may violate (20); retry in the full
         element box, which can only move components toward zero. *)
      let loose = Ldafp_heuristics.round_into pb point in
      Ldafp_heuristics.evaluate pb loose
  | some -> some

let polish_candidate cfg pb = function
  | Some (w, _) when cfg.polish_nodes ->
      let w', c' =
        Ldafp_heuristics.coordinate_polish ~max_rounds:cfg.polish_rounds pb w
      in
      Some (w', c')
  | other -> other

let better a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (_, ca), Some (_, cb) -> if ca <= cb then a else b

(* Secant pruning test: can this region contain a point at least as good
   as the incumbent [theta]?  Certifies "no" when the minimum of
   wᵀS_W w − θ(l+u)t + θlu over the relaxed region is positive (valid
   because t² <= (l+u)t − lu on [l, u]).  A much sharper knife than the
   η = sup t² bound once an incumbent exists, since it couples numerator
   and denominator. *)
(* [theta] is read from the shared incumbent mirror (an Atomic when the
   search runs on several domains); the test itself is pure.

   A secant prune is a pruning decision like any other, so it obeys the
   same rule: with [cfg.certify] the "minimum > 0" claim must come from
   the verified dual certificate of the secant program, never from its
   primal objective.  A failed certificate declines the prune (sound —
   the main bound still runs) rather than failing the node. *)
let secant_prunes cfg pb ~counters ?warm ~fixed node theta =
  theta < Float.infinity
  && Interval.lo node.trange >= 0.0
  &&
  let problem, constant =
    Ldafp_problem.secant_relaxation pb ~wbox:node.wbox ~trange:node.trange
      ~theta
  in
  (* Pinned (singleton) box dimensions leave the secant program with an
     empty strict interior in the full space; substitute them out before
     solving, exactly as [bound_node] does for the main relaxation. *)
  let restricted =
    if Array.length fixed = 0 then Some (problem, Fun.id, 0.0)
    else
      match Socp.restrict problem ~fixed with
      | None -> None
      | Some r ->
          Some
            ( r.Socp.reduced,
              Socp.restriction_project r,
              Socp.restriction_objective_const r )
  in
  match restricted with
  | None -> false (* pinned values infeasible; let the main bound certify *)
  | Some (problem, project, oconst) -> (
      (* The secant program shares the relaxation's constraints, so a
         clipped warm start short-circuits its phase-I too. *)
      let start =
        project
          (match warm with
          | Some x -> x
          | None -> Array.map Fx_interval.mid node.wbox)
      in
      match Socp.solve_auto ~params:cfg.socp_params problem ~start with
      | None -> false (* feasibility unclear; let the main bound decide *)
      | Some sol ->
          if cfg.certify then
            match Socp.certify_lower_bound problem sol with
            | Ok cert ->
                if cert.Socp.repaired then Bnb.count_cert_repaired counters
                else Bnb.count_cert_verified counters;
                cert.Socp.dual_value +. oconst +. constant > 1e-12
            | Error _ -> false (* unverified: decline the prune *)
          else
            sol.Socp.objective +. oconst +. constant
            -. (2.0 *. sol.Socp.gap_bound)
            > 1e-12)

(* Clip an inherited relaxation optimum into this node's box, nudged a
   fraction of each width inside so clipped coordinates do not land
   exactly on the boundary (the barrier needs a strict interior; a
   singleton dimension yields a boundary point that the interiority test
   rejects, falling back to the cold path). *)
let clip_warm_into_box node x =
  let m = Array.length node.wbox in
  if Vec.dim x <> m then None
  else begin
    let y = Array.make m 0.0 in
    for i = 0 to m - 1 do
      let iv = node.wbox.(i) in
      let lo = Fx_interval.lo iv and hi = Fx_interval.hi iv in
      let margin = 1e-3 *. (hi -. lo) in
      y.(i) <- Float.max (lo +. margin) (Float.min (hi -. margin) x.(i))
    done;
    Some y
  end

(* Lower bound + candidate for one region (the paper's steps 3 and 5). *)
let bound_node cfg pb incumbent counters node =
  (* Tighten the t-interval with interval arithmetic over the box; an
     empty intersection means no grid point of this box pairs with this
     t-slice (the complementary slice lives in a sibling node). *)
  match
    Interval.intersect node.trange (Ldafp_problem.trange_of_box pb node.wbox)
  with
  | None -> None
  | Some trange -> (
      node.trange <- trange;
      if is_atomic node then begin
        let w = Array.map Fx_interval.mid node.wbox in
        match Ldafp_heuristics.evaluate pb w with
        | Some (w, c) when Interval.mem node.trange (Ldafp_problem.t_of pb w)
          ->
            Some { Bnb.lower = c; candidate = Some (w, c) }
        | _ -> None
      end
      else
        (* Dimensions the splitting has pinned to a single grid value.
           In the full space each pins a pair of opposing half-spaces to
           equality, so the strict interior is empty and the barrier
           cannot run at all — these coordinates must be eliminated by
           substitution, not handed to the solver. *)
        let fixed =
          let acc = ref [] in
          Array.iteri
            (fun j iv ->
              if Fx_interval.is_singleton iv then
                acc := (j, Fx_interval.lo iv) :: !acc)
            node.wbox;
          Array.of_list (List.rev !acc)
        in
        let warm =
          if cfg.warm_start then
            Option.bind node.warm (fun wi ->
                Option.map
                  (fun x -> (x, wi.tau_final))
                  (clip_warm_into_box node wi.point))
          else None
        in
        if
          cfg.secant_prune
          && secant_prunes cfg pb ~counters ?warm:(Option.map fst warm) ~fixed
               node (Atomic.get incumbent)
        then None
        else
          let eta = Interval.sup_sq node.trange in
          if eta <= 0.0 then None
          else
            let relaxation =
              Ldafp_problem.relaxation pb ~wbox:node.wbox ~trange:node.trange
                ~eta
            in
            (* Substitute the pinned coordinates out.  [socp] ranges over
               the free coordinates only; [project]/[embed] map between
               the reduced and full spaces, and [obj_const] carries the
               objective terms the substitution froze (already in the
               relaxation's objective scale). *)
            let restricted =
              if Array.length fixed = 0 then
                Some (relaxation, Fun.id, Fun.id, 0.0)
              else
                match Socp.restrict relaxation ~fixed with
                | None -> None
                | Some r ->
                    Some
                      ( r.Socp.reduced,
                        Socp.restriction_project r,
                        Socp.restriction_embed r,
                        Socp.restriction_objective_const r )
            in
            match restricted with
            | None ->
                (* The pinned values violate a constraint outright: no
                   point of this region is feasible. *)
                None
            | Some (socp, project, embed, obj_const) -> (
            (* Shared continuation for warm and cold solves.

               The node's lower bound — the value every pruning decision
               compares against the incumbent — is {e never} the primal
               objective.  Certified mode derives it from the verified
               dual certificate (sound whatever the solve did; typically
               also tighter, slack ≈ ν/τ instead of 2ν/τ); a failed
               certificate raises {!Fault.Certificate_error}, which the
               containment policy classifies, retries with jittered
               parameters (the retry hook clears the warm state, giving
               the re-solve a fresh certificate chance), and finally
               degrades to the certified interval fallback.  The
               trusting formula survives only behind [certify = false],
               which also clears {!Bnb.stats.certified_sound}. *)
            let solved sol =
              let x_full = embed sol.Socp.x in
              node.relax_w <-
                Some { point = x_full; tau_final = sol.Socp.tau_final };
              let lower =
                if cfg.certify then
                  match Socp.certify_lower_bound socp sol with
                  | Ok cert ->
                      if cert.Socp.repaired then
                        Bnb.count_cert_repaired counters
                      else Bnb.count_cert_verified counters;
                      (* cost >= 0 always (the objective is a scaled
                         PSD quadratic), so the clamp loses nothing and
                         stays certified. *)
                      Float.max 0.0 (obj_const +. cert.Socp.dual_value)
                  | Error f ->
                      raise
                        (Fault.Certificate_error (Socp.describe_cert_failure f))
                else
                  Float.max 0.0
                    (obj_const +. sol.Socp.objective
                    -. (2.0 *. sol.Socp.gap_bound))
              in
              let cand = candidate_of_point pb node x_full in
              let cand =
                if cfg.upper_via_socp then begin
                  (* The paper's upper-bound estimation: re-solve with the
                     denominator frozen at inf t² and round that optimum.
                     Same constraints, only the objective scale changes —
                     and the lower solve's optimum is a barrier iterate,
                     strictly interior, so the re-solve starts from it
                     with no phase-I. *)
                  let eta_inf = Interval.inf_sq node.trange in
                  if eta_inf > 0.0 then
                    let ub_problem =
                      Socp.with_objective_scale socp (1.0 /. eta_inf)
                    in
                    if Socp.is_strictly_interior ub_problem sol.Socp.x then begin
                      Bnb.count_phase1_skipped counters;
                      (* Same constraints, objective rescaled: the lower
                         optimum already minimises it, so skip as many
                         ladder rungs as its terminal tau certifies. *)
                      let levels =
                        Socp.restart_levels cfg.socp_params
                          ~tau_final:sol.Socp.tau_final
                      in
                      let ub_sol =
                        Socp.solve
                          ~params:(Socp.warm_start_params ~levels
                                     cfg.socp_params)
                          ub_problem ~start:sol.Socp.x
                      in
                      better cand
                        (candidate_of_point pb node (embed ub_sol.Socp.x))
                    end
                    else
                      let start =
                        project (Array.map Fx_interval.mid node.wbox)
                      in
                      match
                        Socp.solve_auto ~params:cfg.socp_params ub_problem
                          ~start
                      with
                      | Some ub_sol ->
                          better cand
                            (candidate_of_point pb node (embed ub_sol.Socp.x))
                      | None -> cand
                  else cand
                end
                else cand
              in
              let cand = polish_candidate cfg pb cand in
              Some { Bnb.lower; candidate = cand }
            in
            (* Warm preparation: accept the clipped parent optimum as-is
               when it is margin-interior, else pull it toward the
               child's analytic-center proxy (the branch rule splits at
               the parent optimum's projection, so clipped points land
               {e on} the branch-cut half-space — a pull along the
               segment toward the box/t center is almost always enough),
               else take one damped Newton correction.  Only a point
               that survives all three repairs goes cold. *)
            let prepared =
              match warm with
              | None -> None
              | Some (x0, tau_parent) -> (
                  let target =
                    project
                      (Ldafp_problem.center_point pb ~wbox:node.wbox
                         ~trange:node.trange)
                  in
                  match
                    Socp.prepare_warm_start ~params:cfg.socp_params ~target
                      socp (project x0)
                  with
                  | Some (x, prep) -> Some (x, prep, tau_parent)
                  | None -> None)
            in
            match prepared with
            | Some (x0, prep, tau_parent) ->
                (* Strictly interior (certifiably, after repair): skip
                   phase-I entirely and skip the ladder rungs the
                   parent's terminal barrier weight certifies (the start
                   is near the child optimum, so the early low-tau
                   centerings are redundant — the final tau and the
                   certified gap are unchanged). *)
                Bnb.count_warm_start_hit counters;
                Bnb.count_phase1_skipped counters;
                (match prep with
                | Socp.Warm_interior -> ()
                | Socp.Warm_pulled -> Bnb.count_warm_pull_in counters
                | Socp.Warm_corrected ->
                    Bnb.count_warm_newton_correction counters);
                let levels =
                  Socp.restart_levels cfg.socp_params ~tau_final:tau_parent
                in
                solved
                  (Socp.solve
                     ~params:(Socp.warm_start_params ~levels cfg.socp_params)
                     socp ~start:x0)
            | None -> (
                (* Cold solve.  Attribute the miss (only when warm starts
                   are enabled at all — with [warm_start = false] every
                   solve is cold by choice, not a miss): the hit and miss
                   counters together partition the relaxation solves that
                   actually ran, so warm_hit_rate = hits/(hits + misses)
                   diagnoses exactly the solves that paid for phase-I.
                   [warm_miss_not_interior] now means the parent point
                   defeated the pull-in {e and} the Newton correction. *)
                if cfg.warm_start then
                  (match node.warm with
                  | None ->
                      if node.warm_tainted then
                        Bnb.count_warm_miss_fault_cleared counters
                      else Bnb.count_warm_miss_no_parent counters
                  | Some _ -> Bnb.count_warm_miss_not_interior counters);
                let start = project (Array.map Fx_interval.mid node.wbox) in
                match
                  Socp.find_strictly_feasible ~params:cfg.socp_params socp
                    ~start
                with
                | Socp.Infeasible _ -> None
                | Socp.Unknown x ->
                    (* Cannot certify anything better than cost >= 0 here,
                       but the box may still contain the optimum: keep
                       exploring.  The point was never centered on any
                       ladder — NaN maps to restart_levels 0 in the
                       children. *)
                    let x_full = embed x in
                    node.relax_w <-
                      Some { point = x_full; tau_final = Float.nan };
                    let cand =
                      polish_candidate cfg pb
                        (candidate_of_point pb node x_full)
                    in
                    Some { Bnb.lower = 0.0; candidate = cand }
                | Socp.Strictly_feasible x0 ->
                    solved (Socp.solve ~params:cfg.socp_params socp ~start:x0)
                )))

(* Branching rule: most relative width among the splittable dimensions,
   cut at the cached relaxation optimum. *)
let branch_node cfg pb node =
  let m = Array.length node.wbox in
  let root = pb.Ldafp_problem.elem_box in
  let best_dim = ref (-1) in
  let best_score = ref 0.0 in
  for j = 0 to m - 1 do
    if not (Fx_interval.is_singleton node.wbox.(j)) then begin
      let rw = Float.max (Fx_interval.width root.(j)) 1e-300 in
      let score = Fx_interval.width node.wbox.(j) /. rw in
      if score > !best_score then begin
        best_score := score;
        best_dim := j
      end
    end
  done;
  let t_width = Interval.width node.trange in
  let t_score =
    if node.root_t_width <= 0.0 then 0.0
    else if t_width <= cfg.t_min_width *. node.root_t_width then 0.0
    else cfg.t_branch_bias *. t_width /. node.root_t_width
  in
  let copy_box () = Array.copy node.wbox in
  if t_score > !best_score then begin
    (* Split t at the relaxation optimum's projection, kept away from the
       endpoints so both children shrink meaningfully. *)
    let at =
      match node.relax_w with
      | Some wi -> Ldafp_problem.t_of pb wi.point
      | None -> Interval.mid node.trange
    in
    let lo = Interval.lo node.trange and hi = Interval.hi node.trange in
    let margin = 0.15 *. (hi -. lo) in
    let at = Float.max (lo +. margin) (Float.min (hi -. margin) at) in
    let left, right = Interval.split ~at node.trange in
    (* Children inherit the parent's relaxation optimum as their warm
       start (clipped into the child box at bound time). *)
    [
      { node with trange = left; wbox = copy_box (); relax_w = None;
        warm = node.relax_w; warm_tainted = false };
      { node with trange = right; wbox = copy_box (); relax_w = None;
        warm = node.relax_w; warm_tainted = false };
    ]
  end
  else if !best_dim >= 0 then begin
    let j = !best_dim in
    let at = Option.map (fun wi -> wi.point.(j)) node.relax_w in
    match Fx_interval.split ?at node.wbox.(j) with
    | None -> []
    | Some (lo, hi) ->
        let left = copy_box () and right = copy_box () in
        left.(j) <- lo;
        right.(j) <- hi;
        [
          { node with wbox = left; relax_w = None; warm = node.relax_w;
            warm_tainted = false };
          { node with wbox = right; relax_w = None; warm = node.relax_w;
            warm_tainted = false };
        ]
  end
  else []

(* Retry attempt [k >= 1] of a failed relaxation: perturb the barrier
   start weight and loosen the tolerances by a decade per attempt —
   enough to step around a conditioning cliff while keeping the bound
   certified (a looser gap only weakens the bound, never unsounds it). *)
let jittered_config cfg k =
  let s = float_of_int k in
  let decade = 10.0 ** s in
  let sp = cfg.socp_params in
  {
    cfg with
    socp_params =
      {
        sp with
        Socp.tau0 = sp.Socp.tau0 *. (1.0 +. (0.37 *. s));
        gap_tol = sp.Socp.gap_tol *. decade;
        newton =
          { sp.Socp.newton with
            Newton.tol = sp.Socp.newton.Newton.tol *. decade };
      };
  }

let solve ?(config = default_config) ?interrupt pb =
  (* Monotonic: [train_seconds] must be immune to NTP steps mid-run. *)
  let started = Obs.Clock.now () in
  (* The suffix versions the snapshot semantics: [+warm2] covers the
     marshalled node shape (nodes carry [warm_info], not a bare point);
     [+cert1] covers certified pruning — frontier keys written by a
     pre-certificate build were computed by the trusting formula, so
     such snapshots must be rejected at load (fingerprint mismatch)
     rather than silently resumed as if their bounds were verified.
     (Same-schema snapshots merely {e stripped} of the cert counters
     still load; {!Bnb} then raises the sticky [counters_reset] marker
     and clears [certified_sound].) *)
  let fingerprint = Ldafp_problem.fingerprint pb ^ "+warm2+cert1" in
  (* A requested resume with no file on disk degrades to a fresh run (the
     natural first iteration of a kill/resume loop); an existing file
     that fails validation raises [Checkpoint.Corrupt] — silently
     retraining over a mismatched checkpoint would hide data drift. *)
  let restored =
    match config.checkpoint with
    | Some spec when spec.resume && Sys.file_exists spec.path ->
        Log.info (fun m -> m "resuming from checkpoint %s" spec.path);
        Some (Checkpoint.load ~expect_fingerprint:fingerprint ~path:spec.path ())
    | _ -> None
  in
  let seed =
    if Option.is_some restored || not config.seed_incumbent then None
    else
      Ldafp_heuristics.seed_incumbent ~steps:config.sweep_steps
        ~max_rounds:(max 4 config.polish_rounds) pb
  in
  let seed_cost = Option.map snd seed in
  Log.debug (fun m ->
      m "%a; seed cost: %a" Ldafp_problem.pp_summary pb
        Fmt.(option ~none:(any "none") float)
        seed_cost);
  let root =
    {
      wbox = Array.copy pb.Ldafp_problem.elem_box;
      trange = pb.Ldafp_problem.t_root;
      root_t_width = Interval.width pb.Ldafp_problem.t_root;
      relax_w = None;
      warm = None;
      warm_tainted = false;
    }
  in
  (* Wrap the seed into the oracle: the root's bound info carries it as a
     candidate so the B&B driver starts with the incumbent installed.  The
     [incumbent] Atomic mirrors the driver's incumbent for the secant
     test; Atomics (exchange for the one-shot seed, CAS-min for the
     mirror) keep the oracle callable from several worker domains. *)
  let first = Atomic.make seed in
  let incumbent =
    Atomic.make
      (match restored with
      | Some state -> (
          match state.Checkpoint.incumbent with
          | Some (_, c) -> c
          | None -> Float.infinity)
      | None -> (
          match seed with Some (_, c) -> c | None -> Float.infinity))
  in
  let note_candidate = function
    | Some (_, c) ->
        let rec improve () =
          let current = Atomic.get incumbent in
          if c < current && not (Atomic.compare_and_set incumbent current c)
          then improve ()
        in
        improve ()
    | None -> ()
  in
  let with_seed = function
    | None -> (
        (* Even a pruned root must surface the seed incumbent. *)
        match Atomic.exchange first None with
        | Some _ as cand ->
            Some { Bnb.lower = Float.infinity; candidate = cand }
        | None -> None)
    | Some info ->
        let info =
          match Atomic.exchange first None with
          | Some _ as cand ->
              { info with Bnb.candidate = better cand info.Bnb.candidate }
          | None -> info
        in
        note_candidate info.Bnb.candidate;
        Some info
  in
  let counters = Bnb.oracle_counters () in
  (* Running trusting-mode is a conscious, recorded choice: the result's
     [certified_sound] flag (and every checkpoint in the chain) says so. *)
  if not config.certify then Bnb.mark_uncertified counters;
  let oracle =
    {
      Bnb.bound =
        (fun node -> with_seed (bound_node config pb incumbent counters node));
      branch = (fun node -> branch_node config pb node);
    }
  in
  let oracle =
    match config.inject_faults with
    | None -> oracle
    | Some inj -> fst (Fault_inject.wrap inj oracle)
  in
  let faults =
    {
      Bnb.policy = config.fault_policy;
      retry_bound =
        Some
          (fun ~attempt node ->
            (* The previous attempt failed mid-solve: any cached point on
               the node is tainted — never warm-start a retry from it. *)
            if node.warm <> None then node.warm_tainted <- true;
            node.warm <- None;
            node.relax_w <- None;
            with_seed
              (bound_node (jittered_config config attempt) pb incumbent
                 counters node));
      fallback_bound =
        Some
          (fun node ->
            Ldafp_problem.interval_lower_bound pb ~wbox:node.wbox
              ~trange:node.trange);
    }
  in
  let checkpointing =
    Option.map
      (fun spec ->
        Bnb.checkpointing ~every_nodes:spec.every_nodes ~fingerprint spec.path)
      config.checkpoint
  in
  (* Pure and O(1): counts stolen nodes that migrate with warm state. *)
  let carries_warm node = node.warm <> None in
  let result =
    match restored with
    | Some state ->
        Bnb.resume ~params:config.bnb_params ~faults ?checkpointing ?interrupt
          ~counters ?progress:config.progress ~carries_warm oracle state
    | None ->
        Bnb.minimize ~params:config.bnb_params ~faults ?checkpointing
          ?interrupt ~counters ?progress:config.progress ~carries_warm oracle
          root
  in
  let train_seconds = Obs.Clock.now () -. started in
  match result.Bnb.best with
  | None -> None
  | Some (w, cost) ->
      Some
        {
          w;
          cost;
          diagnostics =
            {
              nodes = result.Bnb.nodes_explored;
              bound = result.Bnb.bound;
              gap = result.Bnb.gap;
              stop_reason = result.Bnb.stop_reason;
              seed_cost;
              train_seconds;
              search = result.Bnb.stats;
            };
        }
