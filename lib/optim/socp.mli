(** Convex quadratic programs with linear and second-order-cone
    constraints, solved by a log-barrier interior-point method.

    This is the engine behind the LDA-FP lower/upper bound estimation
    (paper eq. 25): each branch-and-bound box yields a problem

    {v minimize (1/2) xᵀP x + qᵀx
      s.t.  aᵢᵀx ≤ bᵢ                      (box, per-element overflow, t-range)
            ‖Lⱼx + gⱼ‖₂ ≤ cⱼᵀx + dⱼ       (projection overflow, eq. 20) v}

    with [P] positive semidefinite.  The barrier for a second-order cone is
    the standard self-concordant [−log((cᵀx+d)² − ‖Lx+g‖²)]. *)

type lin = { a : Linalg.Vec.t; b : float }
(** The half-space [aᵀx <= b]. *)

type soc = {
  l : Linalg.Mat.t;
  g : Linalg.Vec.t;
  c : Linalg.Vec.t;
  d : float;
}
(** The cone [‖l x + g‖₂ <= cᵀx + d]. *)

type problem = private {
  n : int;  (** number of variables *)
  p : Linalg.Mat.t;  (** quadratic term; symmetric PSD, [n × n] *)
  q : Linalg.Vec.t;
  lins : lin array;
  socs : soc array;
  obj_scale : float;
      (** the objective is [obj_scale · ((1/2)xᵀPx + qᵀx)]; lets callers
          share one [P] across a family of problems that differ only by a
          positive scalar (the per-node [1/η] of paper eq. 26) *)
}

val problem :
  ?p:Linalg.Mat.t ->
  ?q:Linalg.Vec.t ->
  ?lins:lin list ->
  ?socs:soc list ->
  int ->
  problem
(** [problem n] with omitted pieces defaulting to zero and
    [obj_scale = 1].  Copies and symmetrises [P].
    @raise Invalid_argument on any dimension mismatch. *)

val of_parts :
  ?obj_scale:float ->
  p:Linalg.Mat.t ->
  q:Linalg.Vec.t ->
  lins:lin array ->
  socs:soc array ->
  int ->
  problem
(** Allocation-lean constructor for callers assembling many problems from
    shared pieces (the branch-and-bound bound oracle): dimension-checks
    only, {b shares} the given arrays instead of copying, and trusts [p]
    to be symmetric.  Callers must not mutate the parts afterwards.
    @raise Invalid_argument on any dimension mismatch. *)

val with_objective_scale : problem -> float -> problem
(** O(1) copy with a different {!field-obj_scale}; constraints and [P]
    are shared.  This is how one relaxation template serves both the
    lower bound ([1/η]) and the upper estimate ([1/η_inf]). *)

val box_constraints : Linalg.Vec.t -> Linalg.Vec.t -> lin list
(** [box_constraints lo hi] is the [2n] half-spaces of [lo <= x <= hi]. *)

(** {2 Variable fixing}

    A problem whose constraints pin a coordinate exactly (the
    [x_j <= c, -x_j <= -c] pair a branch-and-bound box split produces
    once a dimension narrows to a singleton) has an {e empty} strict
    interior: the log barrier cannot run and no warm start — repaired or
    not — can ever pass the interiority test.  {!restrict} eliminates
    such coordinates by exact substitution, restoring a nonempty strict
    interior over the free ones. *)

type restriction = private {
  full_n : int;
  free : int array;  (** reduced index → full index, ascending *)
  pinned : Linalg.Vec.t;  (** full-dimensional; free entries are 0 *)
  reduced : problem;  (** over the free coordinates only *)
  obj_const : float;
      (** unscaled objective offset of the substitution — see
          {!restriction_objective_const} *)
}

val restrict : problem -> fixed:(int * float) array -> restriction option
(** Substitute [x_j = value] for every [(j, value)] in [fixed] — exactly,
    so the reduced optimum embeds back ({!restriction_embed}) to the
    full-space optimum of the pinned slice with the same certified gap.
    Constraints left without any free variable become constants: the
    satisfied ones (a pinned pair's own half-spaces, slack exactly 0)
    are dropped, and one that is violated makes the slice empty —
    [None], which the caller should treat as region infeasibility.

    Every array of the result comes from per-domain storage that the
    next [restrict] on the same domain reuses, so a search that
    restricts problems of one shape at every node allocates only the
    records.  A result is valid until the next [restrict] on the same
    domain.
    @raise Invalid_argument when [fixed] is empty, fixes every variable,
    or indexes out of range. *)

val restriction_embed : restriction -> Linalg.Vec.t -> Linalg.Vec.t
(** Reduced-space point → full-space point (free coordinates from the
    argument, pinned ones from the restriction).  Fresh vector. *)

val restriction_project : restriction -> Linalg.Vec.t -> Linalg.Vec.t
(** Full-space point → its free coordinates.  Projection then embedding
    is the identity on the pinned slice. *)

val restriction_objective_const : restriction -> float
(** The scaled objective offset: [objective_value reduced y +
    restriction_objective_const r] equals [objective_value full (embed
    r y)].  Tracks [reduced]'s current {!field-obj_scale}. *)

val objective_value : problem -> Linalg.Vec.t -> float

val max_violation : problem -> Linalg.Vec.t -> float
(** Largest constraint violation at a point ([<= 0] means feasible);
    for cones this is [‖Lx+g‖ − (cᵀx+d)]. *)

val is_feasible : ?tol:float -> problem -> Linalg.Vec.t -> bool
(** [max_violation <= tol] (default [1e-9]). *)

val min_relative_slack : problem -> Linalg.Vec.t -> float
(** The smallest relative constraint slack at a point: over half-spaces,
    [(b − aᵀx) / (1 + |b| + |aᵀx|)]; over cones, the
    [σ = (cᵀx+d) − ‖Lx+g‖] slack divided by [1 + |cᵀx+d| + ‖Lx+g‖]
    (computed roundoff-consistently with the barrier's own domain test).
    Positive iff strictly interior; the margin {!is_strictly_interior}
    compares against.  Exposed for tests and diagnostics. *)

val is_strictly_interior : ?margin:float -> problem -> Linalg.Vec.t -> bool
(** Every half-space slack and every cone slack strictly positive (the
    barrier's domain), or [false] on a dimension mismatch.  Cheap —
    O(constraints · n), no derivatives — so warm starts can be tested on
    the hot path.  [margin] (default [0.]) is {e relative}: each
    constraint must clear [margin × (1 + |b| + |aᵀx|)] (half-spaces)
    resp. [margin × (1 + |cᵀx+d| + ‖Lx+g‖)] (cones, in the
    [σ = (cᵀx+d) − ‖Lx+g‖] slack form), so the verdict is invariant
    under rescaling the constraint coefficients — an absolute tolerance
    here silently rejected valid warm starts on large-coefficient
    relaxations. *)

type params = {
  tau0 : float;  (** initial barrier weight on the objective *)
  mu : float;  (** barrier growth factor per outer iteration *)
  gap_tol : float;  (** stop when [ν/τ] (suboptimality bound) is below *)
  newton : Newton.params;
  max_outer : int;
  start_margin : float;
      (** starts violating each constraint by at most this fraction of
          its residual scale (see {!is_strictly_interior}) are nudged
          into the interior (phase-I) instead of rejected *)
}

val default_params : params

val warm_start_params : ?levels:int -> params -> params
(** [tau0 ← tau0 · mu^levels] (default 5): the interior-point warm-start
    schedule advance.  Starting {!solve} from a point near the optimum —
    a parent node's relaxation optimum, a previous solve over the same
    constraints — makes the early low-[τ] centering steps redundant;
    skipping them changes neither the final [τ] the schedule reaches nor
    the certified [ν/τ] gap bound, only how many Newton iterations the
    path spends getting there.  From a badly-centered start the boosted
    solve is merely slower (damped Newton still converges), never less
    certified. *)

val restart_levels : ?back:int -> params -> tau_final:float -> int
(** The [levels] to hand {!warm_start_params} when the warm point comes
    from a solve that terminated at barrier weight [tau_final] (its
    {!solution.tau_final}): the largest whole number of rungs the
    ladder can skip while still running at least [back] (default 1,
    clamped >= 1) centering rungs below the producing solve's terminal
    tau.  Integer rungs of the same geometric ladder, so the terminal
    tau — and the certified gap — is exactly what a cold solve reaches;
    a start that skipped {e too} far would run zero centering steps and
    return the parent's point unrefined, which the clamp rules out.
    Callers pass a larger [back] for starts that were repaired
    ({!prepare_warm_start}) rather than inherited verbatim.  0 when
    [tau_final] is not finite (no ladder ran) or does not exceed
    [tau0]. *)

(** {2 Warm-start interiority repair}

    A parent optimum clipped into a child's box almost always lands
    {e on} the child's new half-space boundary (the branch cut passes
    through it), so the plain interiority test rejects it and the solve
    pays a full phase-I.  These helpers repair such a start instead —
    the decision tree is {!prepare_warm_start}; taxonomy and measurement
    guide in {!page-solver}. *)

val pull_to_interior :
  ?margin:float ->
  problem ->
  target:Linalg.Vec.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t option
(** Blend [x] toward [target] by the smallest α ∈ [0, 1] such that every
    constraint clears [margin] (default [1e-8]) × its residual scale —
    certified, not searched: half-space slacks are affine in α and cone
    slacks [σ = u − ‖v‖] are concave (affine minus convex), so the
    chord bound [(1−α)σ(x) + ασ(target)] under-estimates the true slack
    and the per-constraint safe α is closed-form.  [None] when [target]
    itself does not clear the margin (it must be strictly interior with
    room to spare) or the blend fails the final rounding re-check.  The
    result is within the segment [x]–[target], so any convex constraint
    set containing both contains it. *)

val correct_to_interior :
  ?params:params -> ?margin:float -> problem -> Linalg.Vec.t -> Linalg.Vec.t option
(** One-step infeasible-start Newton correction: relax every constraint
    offset by the smallest absolute δ that makes [x] clear
    [margin × scale] on the relaxed problem, take a single damped
    Newton step ({!Newton.step_into}, in the per-domain scratch — O(1)
    heap allocation beyond the returned vector) on the relaxed pure
    barrier (τ = 0, so the step aims at the relaxed analytic center,
    i.e. straight inward), and return the result iff it is strictly
    interior to the {e true} constraints.  The backstop of
    {!prepare_warm_start} when no pull-in target is available or the
    pull failed; [None] sends the caller to phase-I. *)

type warm_prep =
  | Warm_interior  (** accepted as-is: already margin-interior *)
  | Warm_pulled  (** repaired by {!pull_to_interior} *)
  | Warm_corrected  (** repaired by {!correct_to_interior} *)

val prepare_warm_start :
  ?params:params ->
  ?margin:float ->
  ?target:Linalg.Vec.t ->
  problem ->
  Linalg.Vec.t ->
  (Linalg.Vec.t * warm_prep) option
(** The warm-start decision tree: [x] if it is already certifiably
    interior ([margin] relative, default [1e-8]); else the
    analytic-center pull-in toward [?target]; else the one-step Newton
    correction; else [None] — solve cold.  The returned point is safe to
    pass to {!solve} as [start] with a {!warm_start_params} schedule
    advance ({!restart_levels}); callers should budget more [back]
    rungs for [Warm_pulled] / [Warm_corrected] starts, which moved away
    from the parent optimum.  Emits the [socp.warm_pull] /
    [socp.warm_correct] trace instants and bumps the matching metrics
    counters when repair runs. *)

type status = Optimal | Suboptimal
(** [Suboptimal]: an outer-iteration limit, a stalled centering step, or
    a diverged (NaN) Newton solve; the returned point is feasible but
    the gap bound may exceed [gap_tol]. *)

type solution = {
  x : Linalg.Vec.t;
  objective : float;
  gap_bound : float;  (** certified bound on suboptimality, [ν/τ] *)
  tau_final : float;
      (** the barrier weight the point was last centered at, so
          [gap_bound = ν / tau_final]; [infinity] for an unconstrained
          problem (no ladder).  The dual-side warm information a child
          solve feeds to {!restart_levels} — carrying it with the point
          is what lets stolen and checkpoint-restored nodes skip the
          early rungs too. *)
  outer_iterations : int;
  newton_iterations : int;
  status : status;
}

val solve :
  ?params:params ->
  ?certificate:Linalg.Vec.t ->
  problem ->
  start:Linalg.Vec.t ->
  solution
(** Path-following from a strictly feasible [start].  A start that is
    feasible only up to roundoff — violating no constraint by more than
    [params.start_margin] × its residual scale — is repaired before the
    barrier loop runs:

    - with [?certificate] (a point the caller knows to be strictly
      interior, e.g. a phase-I output or a previous barrier solution for
      the same constraints), the start is blended toward the certificate
      until strictly interior — no phase-I solve, so warm starts clipped
      to a box boundary do not silently pay the cold cost;
    - otherwise it is nudged into the interior via
      {!find_strictly_feasible} (a full phase-I solve).

    An invalid certificate (wrong dimension or not interior) is ignored.
    [start] is never mutated and no longer copied up front.
    @raise Invalid_argument if [start] violates a constraint by more
    than [params.start_margin], or the phase-I nudge fails. *)

type feasibility =
  | Strictly_feasible of Linalg.Vec.t
  | Infeasible of float  (** certified positive lower bound on violation *)
  | Unknown of Linalg.Vec.t  (** best point found; violation within noise *)

val find_strictly_feasible :
  ?params:params -> ?margin:float -> problem -> start:Linalg.Vec.t -> feasibility
(** Phase-I: minimise the auxiliary slack [s] with every constraint relaxed
    by [s], from an arbitrary [start].  Succeeds as soon as an iterate
    clears [margin] (default [1e-9]) × each constraint's residual scale
    (the relative-slack convention of {!is_strictly_interior}). *)

val solve_auto : ?params:params -> problem -> start:Linalg.Vec.t -> solution option
(** Phase-I then phase-II; [None] when phase-I proves or suspects
    infeasibility. [start] need not be feasible. *)

(** {2 Independent dual certificates}

    A barrier solve's primal objective is {e not} a safe lower bound on
    the problem optimum: a stalled or diverged solve can return a value
    above the truth, and a branch-and-bound search pruning on it would
    silently discard the optimum.  {!certify_lower_bound} turns the
    terminal iterate into an independently verified fact: it extracts
    approximate dual multipliers from barrier stationarity, repairs
    them onto the dual-feasible set with a closed-form projection
    (clipping negative half-space multipliers, shrinking cone
    multiplier pairs onto the cone against an upward-rounded norm), and
    evaluates the resulting dual objective in outward-rounded interval
    arithmetic (each +, ×, − widened one float outward, over unboxed
    endpoint pairs in per-domain scratch) with the Lagrangian
    stationarity residual absorbed over the problem's coordinate box
    (Neumaier–Shcherbina).  Weak duality then makes the result a true
    lower bound regardless of primal solve quality — the certificate
    depends on the primal point only through the {e tightness} of the
    bound, never its {e validity}. *)

type certificate = {
  dual_value : float;
      (** verified lower bound on the problem optimum (includes
          {!field-obj_scale}, like {!solution.objective}) *)
  slack : float;  (** [solution.objective − dual_value]; may be negative
                      when the primal iterate overshot *)
  repaired : bool;  (** at least one multiplier needed projection *)
}

type cert_failure =
  | Cert_repair_failed of string
      (** no dual-feasible point could be built (unusable terminal
          barrier weight, non-finite iterate, …) or the interval
          evaluation did not produce a finite value (a nonzero
          stationarity residual on a coordinate the constraints leave
          unbounded) *)
  | Cert_gap_excessive of float
      (** a valid bound was produced but its primal-dual slack (the
          payload) exceeds [max_rel_slack × (1 + |objective|)] — the
          solve is too poor to trust either side; callers should
          re-solve or fall back *)

val describe_cert_failure : cert_failure -> string

val certify_lower_bound :
  ?max_rel_slack:float -> problem -> solution -> (certificate, cert_failure) result
(** Requires what {!val-problem} already guarantees — [P] PSD and
    [obj_scale > 0] (checked) — and nothing about the solution: the
    primal point need not be feasible, only finite.  At a properly
    centered iterate the certified slack is about [ν/τ], i.e. the bound
    is typically {e tighter} than the heuristic
    [objective − 2·gap_bound].  [max_rel_slack] (default [0.1])
    triggers {!Cert_gap_excessive}, relative to [1 + |objective|].
    Bumps the [ldafp_socp_cert_*] metrics and observes the slack
    histogram when {!Obs.Metrics} is enabled.  Cost: one [P·x*] product
    plus one pass over the constraint data in interval arithmetic —
    O(n² + constraints·n), no factorisation — and, once the domain's
    scratch has grown to the problem's size, no allocation beyond the
    returned result. *)

(**/**)

val centering_oracle_for_tests : problem -> float -> Newton.oracle
(** The centering objective [τ·f + barrier] — exposed so the test suite
    can finite-difference the hand-derived cone calculus. Not part of the
    stable API. *)
