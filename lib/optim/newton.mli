(** Damped Newton minimisation of smooth strictly convex functions.

    The inner loop of the barrier method: minimise [f] given a combined
    value/gradient/Hessian oracle.  The oracle returns [None] outside the
    function's domain (e.g. outside the barrier's cone), which the
    backtracking line search treats as [+∞]. *)

type oracle = Linalg.Vec.t -> (float * Linalg.Vec.t * Linalg.Mat.t) option

type params = {
  tol : float;  (** stop when the Newton decrement λ²/2 falls below this *)
  max_iter : int;
  alpha : float;  (** line-search sufficient-decrease fraction, in (0, ½) *)
  beta : float;  (** line-search backtracking factor, in (0, 1) *)
}

val default_params : params
(** [tol = 1e-9], [max_iter = 80], [alpha = 0.25], [beta = 0.5]. *)

type status = Converged | Iteration_limit | Stalled | Diverged
(** [Stalled]: the line search could not make progress (typically at the
    numerical boundary of the domain); the best iterate is still
    returned.  [Diverged]: the Newton decrement evaluated to NaN (a NaN
    in the oracle's gradient/Hessian, or a degenerate Newton system) —
    the returned iterate is the last {e finite} one, but it carries no
    optimality certificate and callers must not treat it as converged. *)

type result = {
  x : Linalg.Vec.t;
  value : float;
  iterations : int;
  decrement : float;  (** final λ²/2 *)
  status : status;
}

val minimize : ?params:params -> oracle -> Linalg.Vec.t -> result
(** @raise Invalid_argument if the starting point is outside the domain. *)

(** {2 Allocation-free interface}

    The barrier method calls Newton once per outer iteration on problems
    of a fixed dimension, so the iterate, direction, Hessian and
    factorisation buffers can be reused across calls.  A {!workspace} is
    {b not} thread-safe: share one per domain (e.g. via [Domain.DLS]),
    never across domains. *)

type 'a oracle_into =
  'a ->
  Linalg.Vec.t ->
  grad:Linalg.Vec.t ->
  hess:Linalg.Mat.t ->
  value:float array ->
  bool
(** [oracle st x ~grad ~hess ~value] evaluates the function described
    by the state [st] at [x]: it writes the value into [value.(0)], the
    gradient into [grad] and the Hessian into [hess], and returns
    [true]; it returns [false] outside the domain, in which case the
    buffers' contents are unspecified.  A NaN value is handled like
    {!minimize}'s.  Passing the state explicitly lets the caller use a
    top-level function, so no closure is built per call.  The buffers
    are owned by the solver and clobbered on every evaluation — oracles
    must not retain them. *)

type workspace
(** Reusable scratch for {!minimize_into}: iterate double-buffer,
    gradient, Hessian, symmetrisation and Cholesky scratch, direction,
    and the scalars of the last solve. *)

val workspace : int -> workspace
(** [workspace n] allocates scratch for [n]-dimensional problems. *)

val workspace_dim : workspace -> int

val minimize_into :
  params:params -> workspace -> 'a oracle_into -> 'a -> Linalg.Vec.t -> status
(** Same algorithm and same results as {!minimize}, with every
    temporary in the workspace: once the workspace exists a call
    allocates nothing.  The final iterate is {!point}, its iteration
    count {!iterations}.  [x0] is not mutated and may be {!point} of the
    same workspace (a warm restart).
    @raise Invalid_argument if the starting point is outside the domain
    or its dimension does not match the workspace. *)

val point : workspace -> Linalg.Vec.t
(** The last accepted iterate of {!minimize_into} (or the start of
    {!step_into}).  Owned by the workspace and overwritten by the next
    call: copy it to keep it. *)

val iterations : workspace -> int
(** Newton iterations of the last {!minimize_into}. *)

val step_into :
  params:params ->
  workspace ->
  'a oracle_into ->
  'a ->
  Linalg.Vec.t ->
  dst:Linalg.Vec.t ->
  bool
(** One damped Newton step from [x0], written into [dst]: direction via
    the jittered Cholesky, then the same backtracking line search (with
    domain rejection) as {!minimize_into}, stopping at the first
    accepted candidate.  Returns [false] — leaving [dst] unspecified —
    when [x0] is outside the oracle's domain, the Newton system is
    degenerate (NaN decrement) or the line search cannot find an
    acceptable point.  Heap-allocation-free: all temporaries live in the
    workspace.  This is the engine of the warm-start interiority
    correction (see {!Socp.correct_to_interior}), where a single pure
    barrier step from a slightly-relaxed start is enough to clear the
    boundary and a full {!minimize_into} would waste the budget.
    [dst] may alias [x0]; it must not alias the workspace buffers.
    @raise Invalid_argument on a dimension mismatch. *)
