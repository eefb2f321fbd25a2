(** The LDA-FP mixed-integer program (paper eq. 21).

    Built from the class statistics of (scaled, quantised) training data
    and a target fixed-point format [QK.F]:

    {v minimize  wᵀ S_W w / ((μ_A − μ_B)ᵀ w)²
       s.t.      w_m μ_{·,m} ± β|w_m| σ_{·,m} within QK.F range   (18)
                 μ_·ᵀw ± β √(wᵀ Σ_· w)      within QK.F range   (20)
                 w_m on the QK.F grid                             (13) v}

    with [β = Φ⁻¹(0.5 + 0.5 ρ)].  The per-element constraints (18) are
    piecewise linear in [w_m] and reduce to one closed interval per element
    (computed here in closed form); the projection constraints (20) are the
    four second-order cones handed to the relaxation solver. *)

type t = private {
  fmt : Fixedpoint.Qformat.t;
  rho : float;  (** confidence level *)
  beta : float;  (** Φ⁻¹(0.5 + 0.5ρ), eq. 16 *)
  scatter : Stats.Scatter.t;
  sw : Linalg.Mat.t;  (** within-class scatter (symmetrised) *)
  d : Linalg.Vec.t;  (** μ_A − μ_B *)
  elem_box : Fixedpoint.Fx_interval.t array;
      (** per-element grid interval: (13) ∩ (18) ∩ (28) *)
  socs : Optim.Socp.soc array;
      (** the four cones of (20), with a slack compensating the Cholesky
          jitter so the relaxation never cuts off an exactly-feasible
          grid point *)
  t_root : Optim.Interval.t;  (** initial range of t = dᵀw, eq. 29 *)
  restrict_t_positive : bool;
      (** heuristic H3: exploit the w ↦ −w symmetry of the cost by
          searching only t >= 0 *)
  p_base : Linalg.Mat.t;
      (** [2 S_W] — the node-independent quadratic term every relaxation
          shares (the per-node [1/η] is an {!Optim.Socp} objective scale) *)
  q_zero : Linalg.Vec.t;  (** shared zero linear term *)
  box_pos : Linalg.Vec.t array;  (** shared [e_i] box directions *)
  box_neg : Linalg.Vec.t array;  (** shared [−e_i] box directions *)
  d_neg : Linalg.Vec.t;  (** shared [−d] t-range direction *)
}

exception No_feasible_box of string
(** Raised by {!build} when some element admits no grid point (can only
    happen with degenerate formats). *)

val build :
  ?rho:float ->
  ?restrict_t_positive:bool ->
  fmt:Fixedpoint.Qformat.t ->
  Stats.Scatter.t ->
  t
(** [rho] defaults to 0.99; [restrict_t_positive] to [true]. *)

val dim : t -> int

val elem_interval : t -> int -> Fixedpoint.Fx_interval.t

val cost : t -> Linalg.Vec.t -> float
(** Objective of eq. (21); [infinity] when [dᵀw = 0]. *)

val on_grid : t -> Linalg.Vec.t -> bool
(** Every component on the QK.F grid. *)

val constraint_violation : t -> Linalg.Vec.t -> float
(** Largest violation of (18) and (20), evaluated exactly (square roots of
    the true quadratic forms, no jitter). [<= 0] means feasible. *)

val feasible : ?tol:float -> t -> Linalg.Vec.t -> bool
(** Grid membership, element intervals, and [constraint_violation <= tol]
    (default [1e-9]). *)

val feasible_cost : t -> Linalg.Vec.t -> float
(** [cost t w] when [feasible t w] holds and the cost is finite, NaN
    otherwise: the candidate test of the bound oracle and the polish
    loop, without allocating. *)

val t_of : t -> Linalg.Vec.t -> float
(** [t = (μ_A − μ_B)ᵀ w], eq. (22). *)

val relaxation :
  t ->
  wbox:Fixedpoint.Fx_interval.t array ->
  trange:Optim.Interval.t ->
  eta:float ->
  Optim.Socp.problem
(** The convex relaxation (eq. 25) over a box: objective
    [wᵀ S_W w / eta], box + t-range half-spaces, the four cones.
    Allocation-lean: the quadratic term, cones and constraint directions
    are shared from the problem template ([eta] is an objective scale,
    not a rebuilt [P]); only the 2M+2 half-space offsets are fresh. *)

val trange_of_box : t -> Fixedpoint.Fx_interval.t array -> Optim.Interval.t
(** Interval-arithmetic range of [dᵀw] over a box (used to tighten and to
    prune node t-ranges). *)

val center_point :
  t ->
  wbox:Fixedpoint.Fx_interval.t array ->
  trange:Optim.Interval.t ->
  Linalg.Vec.t
(** A certifiably box-and-t-interior point of the region: a corner
    blend with [dᵀw] exactly at [mid trange] and every coordinate the
    same relative depth into its box interval.  The pull-in target for
    warm starts stranded on a child's branch cut
    ({!Optim.Socp.pull_to_interior}) — strictly interior to the box and
    t half-spaces whenever the region is non-degenerate and [trange]
    has been intersected with {!trange_of_box} (which [bound] does
    first).  Interiority w.r.t. the overflow cones is {e not}
    guaranteed; the pull-in verifies the target before trusting it. *)

val secant_relaxation :
  t ->
  wbox:Fixedpoint.Fx_interval.t array ->
  trange:Optim.Interval.t ->
  theta:float ->
  Optim.Socp.problem * float
(** Incumbent-pruning certificate: over [t ∈ [l, u]] the secant bound
    [t² <= (l+u)t − lu] holds, so any point of the region with cost
    [<= theta] satisfies [wᵀS_W w − θ(l+u)dᵀw + θlu <= 0].  Returns the
    convex program minimising the left side (the constant [θlu] is
    returned separately — add it to the solver's objective value); a
    certified positive minimum proves no point of the region beats
    [theta].  Requires [theta >= 0] and [l >= 0] (use on the positive-t
    side; mirror the region first otherwise). *)

val fingerprint : t -> string
(** Hex digest of the full problem data (format, confidence, scatter,
    derived boxes and cones).  Two runs over the same training data and
    configuration produce the same fingerprint; checkpoints record it so
    a resume against different data is rejected instead of silently
    producing garbage. *)

val interval_lower_bound :
  t ->
  wbox:Fixedpoint.Fx_interval.t array ->
  trange:Optim.Interval.t ->
  float
(** Cheap conservative lower bound on the cost over a box:
    term-wise interval minimum of [wᵀ S_W w] divided by [sup t²],
    clamped at 0 ([+∞] when the t-range is degenerate at 0).  Orders of
    magnitude weaker than the SOCP relaxation but never raises and
    costs O(M²) — the degraded fallback when the relaxation solver
    fails on a region. *)

val pp_summary : Format.formatter -> t -> unit
