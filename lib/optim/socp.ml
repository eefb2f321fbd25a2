open Linalg

(* Barrier-solver metrics, registered eagerly at module init; recording
   is guarded by [Obs.Metrics.enabled] at every site (see Obs).
   Glossary: doc/observability.mld. *)
let m_solve_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"barrier SOCP solves (warm or cold)" "ldafp_socp_solve_total"

let m_phase1_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"phase-I feasibility solves actually run (the path warm starts \
           skip)"
    "ldafp_socp_phase1_total"

let m_warm_pull_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"warm starts repaired by the analytic-center pull-in"
    "ldafp_socp_warm_pull_total"

let m_warm_correct_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"warm starts repaired by the one-step Newton correction"
    "ldafp_socp_warm_correct_total"

let m_solve_seconds =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1e-7 ~hi:100.0
    ~help:"wall time of one Socp.solve call (incl. any interior nudge)"
    "ldafp_socp_solve_seconds"

let m_newton_iterations =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1.0 ~hi:1e4
    ~help:"Newton iterations per Socp.solve (summed over the tau ladder)"
    "ldafp_socp_newton_iterations"

let m_cert_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"dual-certificate evaluations attempted" "ldafp_socp_cert_total"

let m_cert_repaired_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"certificates whose multipliers needed the feasibility repair \
           projection"
    "ldafp_socp_cert_repaired_total"

let m_cert_failed_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"certificate evaluations that failed (repair impossible or \
           primal-dual slack excessive)"
    "ldafp_socp_cert_failed_total"

let m_cert_slack =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1e-12 ~hi:1e3
    ~help:"primal objective minus certified dual value per certificate \
           (clamped below at 1e-12)"
    "ldafp_socp_cert_slack"

type lin = { a : Vec.t; b : float }
type soc = { l : Mat.t; g : Vec.t; c : Vec.t; d : float }

type problem = {
  n : int;
  p : Mat.t;
  q : Vec.t;
  lins : lin array;
  socs : soc array;
  obj_scale : float;
}

let of_parts ?(obj_scale = 1.0) ~p ~q ~lins ~socs n =
  if n <= 0 then invalid_arg "Socp.of_parts: n must be positive";
  if Mat.dims p <> (n, n) then invalid_arg "Socp.of_parts: P must be n x n";
  if Vec.dim q <> n then invalid_arg "Socp.of_parts: q must have length n";
  Array.iter
    (fun { a; _ } ->
      if Vec.dim a <> n then
        invalid_arg "Socp.of_parts: linear constraint dimension mismatch")
    lins;
  Array.iter
    (fun { l; g; c; _ } ->
      if Mat.cols l <> n || Vec.dim c <> n || Vec.dim g <> Mat.rows l then
        invalid_arg "Socp.of_parts: cone constraint dimension mismatch")
    socs;
  { n; p; q; lins; socs; obj_scale }

let with_objective_scale pb obj_scale = { pb with obj_scale }

(* Inline kernels.  The hot path (the barrier oracle, the interiority
   tests and the certificate) never calls a function that takes or
   returns a float across a module boundary: such a call boxes its float
   on every invocation ([Float.min]/[max] are [@inline] in the Stdlib and
   safe).  [dot] keeps [Vec.dot]'s exact operation order, so every result
   is bit-identical to the Linalg code it replaces. *)
let[@inline] dot a b =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

(* ------------------------------------------------------------------ *)
(* Variable fixing (restriction to a coordinate subspace)              *)
(* ------------------------------------------------------------------ *)

(* A box-split branch-and-bound search pins variables to singletons long
   before its boxes become atomic, and a pinned coordinate pair
   [x_j <= c, -x_j <= -c] has {e no} strict interior: the log barrier
   cannot even evaluate there, so every such node used to fall through
   phase-I to an uncertified lower bound of 0 — and every warm start on
   one was unrepairable by construction.  Exact substitution fixes both:
   eliminate the pinned coordinates, solve over the free ones (whose
   strict interior is back), and embed the optimum. *)
type restriction = {
  full_n : int;
  free : int array;  (* reduced index -> full index, ascending *)
  pinned : Vec.t;  (* full-dimensional; free entries are 0 *)
  reduced : problem;
  obj_const : float;
      (* unscaled objective offset of the substitution,
         ½ vᵀPv + qᵀv over the pinned part *)
}

(* Per-domain storage for restrictions.  A pool hands out its arrays in
   order and reuses slot k whenever the k-th request asks for the same
   length as last time, so restricting problems of one shape again —
   every node of a branch-and-bound search — allocates only the
   records.  Every [restrict] on a domain reuses that domain's pools, so
   a restriction is valid until the next [restrict] on the same
   domain. *)
type 'a pool = { mutable slots : 'a array array; mutable used : int; fill : 'a }

let pool fill = { slots = [||]; used = 0; fill }

let take p len =
  let k = p.used in
  p.used <- k + 1;
  if k < Array.length p.slots && Array.length p.slots.(k) = len then p.slots.(k)
  else begin
    let a = Array.make len p.fill in
    if k >= Array.length p.slots then begin
      let grown = Array.make ((2 * k) + 4) [||] in
      Array.blit p.slots 0 grown 0 (Array.length p.slots);
      p.slots <- grown
    end;
    p.slots.(k) <- a;
    a
  end

type restriction_buffers = {
  floats : float pool;
  rows : float array pool;  (* matrices: arrays of [floats] rows *)
  ints : int pool;
  lin_arrays : lin pool;
  soc_arrays : soc pool;
}

let restriction_key =
  Domain.DLS.new_key (fun () ->
      {
        floats = pool 0.0;
        rows = pool [||];
        ints = pool 0;
        lin_arrays = pool { a = [||]; b = 0.0 };
        soc_arrays = pool { l = [||]; g = [||]; c = [||]; d = 0.0 };
      })

(* [a] restricted to the free coordinates is all zero. *)
let zero_on free a =
  let z = ref true in
  for i = 0 to Array.length free - 1 do
    if a.(free.(i)) <> 0.0 then z := false
  done;
  !z

let sub_vec bufs free a =
  let y = take bufs.floats (Array.length free) in
  for i = 0 to Array.length free - 1 do
    y.(i) <- a.(free.(i))
  done;
  y

let restrict pb ~fixed =
  if Array.length fixed = 0 then invalid_arg "Socp.restrict: nothing to fix";
  let bufs = Domain.DLS.get restriction_key in
  bufs.floats.used <- 0;
  bufs.rows.used <- 0;
  bufs.ints.used <- 0;
  bufs.lin_arrays.used <- 0;
  bufs.soc_arrays.used <- 0;
  let keep = take bufs.ints pb.n in
  let v = take bufs.floats pb.n in
  Array.fill keep 0 pb.n 1;
  Array.fill v 0 pb.n 0.0;
  for k = 0 to Array.length fixed - 1 do
    let j, value = fixed.(k) in
    if j < 0 || j >= pb.n then invalid_arg "Socp.restrict: index out of range";
    keep.(j) <- 0;
    v.(j) <- value
  done;
  let nf = Array.fold_left ( + ) 0 keep in
  if nf = 0 then invalid_arg "Socp.restrict: every variable fixed";
  let free = take bufs.ints nf in
  let k = ref 0 in
  for j = 0 to pb.n - 1 do
    if keep.(j) = 1 then begin
      free.(!k) <- j;
      incr k
    end
  done;
  (* Full x = y on the free coordinates, v on the fixed ones.  Every
     part below is the exact substitution — no approximation — so the
     reduced optimum embeds back to the optimum of the full problem
     restricted to the pinned slice, with identical certified gaps.
     The sums run in Mat.mul_vec / Mat.quadratic_form / Vec.dot order. *)
  let pv = take bufs.floats pb.n in
  for i = 0 to pb.n - 1 do
    pv.(i) <- dot pb.p.(i) v
  done;
  let p = take bufs.rows nf in
  for i = 0 to nf - 1 do
    p.(i) <- sub_vec bufs free pb.p.(free.(i))
  done;
  let q = take bufs.floats nf in
  for i = 0 to nf - 1 do
    q.(i) <- pb.q.(free.(i)) +. pv.(free.(i))
  done;
  let obj_const = (0.5 *. dot v pv) +. dot pb.q v in
  (* A constraint on the fixed variables only is now a constant:
     satisfied (the pinned pair's own half-spaces, with slack exactly
     0) — drop it; violated — the slice is empty. *)
  let kept = ref 0 and infeasible = ref false in
  for k = 0 to Array.length pb.lins - 1 do
    let { a; b } = pb.lins.(k) in
    if not (zero_on free a) then incr kept
    else if b -. dot a v < 0.0 then infeasible := true
  done;
  if !infeasible then None
  else begin
    let lins = take bufs.lin_arrays !kept in
    let kk = ref 0 in
    for k = 0 to Array.length pb.lins - 1 do
      let { a; b } = pb.lins.(k) in
      if not (zero_on free a) then begin
        lins.(!kk) <- { a = sub_vec bufs free a; b = b -. dot a v };
        incr kk
      end
    done;
    let socs = take bufs.soc_arrays (Array.length pb.socs) in
    let empty = ref false in
    for k = 0 to Array.length pb.socs - 1 do
      let { l; g; c; d } = pb.socs.(k) in
      let rows = Array.length l in
      let l' = take bufs.rows rows and g' = take bufs.floats rows in
      for r = 0 to rows - 1 do
        l'.(r) <- sub_vec bufs free l.(r);
        g'.(r) <- g.(r) +. dot l.(r) v
      done;
      let soc = { l = l'; g = g'; c = sub_vec bufs free c; d = d +. dot c v } in
      socs.(k) <- soc;
      (* A cone left without free variables is empty iff ‖g‖ > d. *)
      if
        Array.for_all (fun x -> x = 0.0) soc.c
        && Array.for_all (Array.for_all (fun x -> x = 0.0)) soc.l
        && Vec.norm2 soc.g > soc.d
      then empty := true
    done;
    if !empty then None
    else
      Some
        {
          full_n = pb.n;
          free;
          pinned = v;
          reduced = { n = nf; p; q; lins; socs; obj_scale = pb.obj_scale };
          obj_const;
        }
  end

let restriction_embed r y =
  if Vec.dim y <> Array.length r.free then
    invalid_arg "Socp.restriction_embed: dimension mismatch";
  let x = Vec.copy r.pinned in
  for i = 0 to Array.length r.free - 1 do
    x.(r.free.(i)) <- y.(i)
  done;
  x

let restriction_project r x =
  if Vec.dim x <> r.full_n then
    invalid_arg "Socp.restriction_project: dimension mismatch";
  let y = Array.make (Array.length r.free) 0.0 in
  for i = 0 to Array.length r.free - 1 do
    y.(i) <- x.(r.free.(i))
  done;
  y

let restriction_objective_const r = r.reduced.obj_scale *. r.obj_const

let problem ?p ?q ?(lins = []) ?(socs = []) n =
  if n <= 0 then invalid_arg "Socp.problem: n must be positive";
  let p = match p with Some p -> p | None -> Mat.zeros n n in
  let q = match q with Some q -> q | None -> Vec.zeros n in
  if Mat.dims p <> (n, n) then invalid_arg "Socp.problem: P must be n x n";
  if not (Mat.is_symmetric ~tol:1e-8 p) then
    invalid_arg "Socp.problem: P must be symmetric";
  of_parts ~p:(Mat.symmetrize p) ~q ~lins:(Array.of_list lins)
    ~socs:(Array.of_list socs) n

let box_constraints lo hi =
  if Vec.dim lo <> Vec.dim hi then
    invalid_arg "Socp.box_constraints: dimension mismatch";
  let n = Vec.dim lo in
  List.concat
    (List.init n (fun i ->
         [ { a = Vec.basis n i; b = hi.(i) };
           { a = Vec.neg (Vec.basis n i); b = -.lo.(i) } ]))

(* ½xᵀPx in Mat.quadratic_form's order, without its P x temporary. *)
let[@inline] half_quad pb x =
  let s = ref 0.0 in
  for i = 0 to pb.n - 1 do
    s := !s +. (x.(i) *. dot pb.p.(i) x)
  done;
  0.5 *. !s

let objective_value pb x =
  if Vec.dim x <> pb.n then
    invalid_arg "Socp.objective_value: dimension mismatch";
  pb.obj_scale *. (half_quad pb x +. dot pb.q x)

(* ‖Lx + g‖² without materialising the residual vector. *)
let[@inline] soc_vv { l; g; _ } x =
  let vv = ref 0.0 in
  for r = 0 to Array.length l - 1 do
    let vr = dot l.(r) x +. g.(r) in
    vv := !vv +. (vr *. vr)
  done;
  !vv

let max_violation pb x =
  if Vec.dim x <> pb.n then invalid_arg "Socp.max_violation: dimension mismatch";
  let worst = ref Float.neg_infinity in
  for k = 0 to Array.length pb.lins - 1 do
    let { a; b } = pb.lins.(k) in
    worst := Float.max !worst (dot a x -. b)
  done;
  for k = 0 to Array.length pb.socs - 1 do
    let { c; d; _ } as s = pb.socs.(k) in
    worst := Float.max !worst (sqrt (soc_vv s x) -. (dot c x +. d))
  done;
  if !worst = Float.neg_infinity then 0.0 else !worst

let is_feasible ?(tol = 1e-9) pb x = max_violation pb x <= tol

type params = {
  tau0 : float;
  mu : float;
  gap_tol : float;
  newton : Newton.params;
  max_outer : int;
  start_margin : float;
}

let default_params =
  { tau0 = 1.0; mu = 15.0; gap_tol = 1e-8;
    newton = { Newton.default_params with tol = 1e-10 }; max_outer = 60;
    start_margin = 1e-6 }

(* Warm-start schedule advance: from a near-optimal start the early
   low-tau centerings are redundant, and because the tau sequence is the
   same geometric ladder, the final tau (hence the certified gap) is
   unchanged — only the number of rungs climbed differs. *)
let warm_start_params ?(levels = 5) params =
  { params with tau0 = params.tau0 *. (params.mu ** float_of_int levels) }

(* How many rungs a solve seeded near an optimum certified at
   [tau_final] may skip.  Integer rungs of the same geometric ladder, so
   the terminal tau — and with it the certified gap — is exactly the
   cold solve's; [back] extra rungs of headroom for starts that were
   repaired rather than inherited verbatim.  The clamp to >= 1 remaining
   rung matters: a ladder that starts at or beyond the parent's terminal
   tau would run zero centering steps and return the (parent's!) start
   unrefined. *)
let restart_levels ?(back = 1) params ~tau_final =
  if
    (not (Float.is_finite tau_final))
    || tau_final <= params.tau0 || params.mu <= 1.0
  then 0
  else
    let rungs = floor (log (tau_final /. params.tau0) /. log params.mu) in
    max 0 (int_of_float rungs - max 1 back)

type status = Optimal | Suboptimal

type solution = {
  x : Vec.t;
  objective : float;
  gap_bound : float;
  tau_final : float;
  outer_iterations : int;
  newton_iterations : int;
  status : status;
}

(* Total barrier parameter: 1 per half-space, 2 per cone. *)
let barrier_nu pb = Array.length pb.lins + (2 * Array.length pb.socs)

(* Per-domain scratch for the centering oracle and the Newton solver,
   keyed by problem dimension.  Domain-local (Domain.DLS), so workers of
   the parallel B&B driver never share buffers even when regions migrate
   between shards (Work_deque); the phase-I augmented problem has
   dimension n+1 and therefore its own entry, so phase-I and phase-II
   never clobber each other either.  The scratch is also the barrier
   oracle's state: [pb] and [knobs] say which function it evaluates, so
   the oracle is a top-level function and no closure is built per
   Newton call. *)
type scratch = {
  ws : Newton.workspace;
  px : Vec.t;  (* P x *)
  mutable v : Vec.t;  (* cone residual Lx + g; sized to the largest cone *)
  ltv : Vec.t;  (* Lᵀ v *)
  gh : Vec.t;  (* gradient of the cone slack h *)
  mutable pb : problem;  (* the problem the oracle evaluates *)
  knobs : float array;  (* [| tau; relax |], see [centering_into] *)
}

let scratch_key : (int, scratch) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 7)

let scratch_for pb =
  let tbl = Domain.DLS.get scratch_key in
  let max_rows = ref 0 in
  for k = 0 to Array.length pb.socs - 1 do
    max_rows := max !max_rows (Mat.rows pb.socs.(k).l)
  done;
  let sc =
    match Hashtbl.find tbl pb.n with
    | sc -> sc
    | exception Not_found ->
        let sc =
          {
            ws = Newton.workspace pb.n;
            px = Vec.zeros pb.n;
            v = Vec.zeros !max_rows;
            ltv = Vec.zeros pb.n;
            gh = Vec.zeros pb.n;
            pb;
            knobs = [| 0.0; 0.0 |];
          }
        in
        Hashtbl.replace tbl pb.n sc;
        sc
  in
  if Vec.dim sc.v < !max_rows then sc.v <- Vec.zeros !max_rows;
  sc

(* Point the scratch's oracle at tau·f(x) + φ(x) for [pb]. *)
let set_barrier sc pb ~tau ~relax =
  sc.pb <- pb;
  sc.knobs.(0) <- tau;
  sc.knobs.(1) <- relax

(* The barrier oracle ({!Newton.oracle_into}) for tau·f(x) + φ(x) of
   [sc.pb] with [sc.knobs = [| tau; relax |]]; false outside the barrier
   domain.  All temporaries live in [sc]; [grad]/[hess] are the Newton
   workspace buffers.  [relax] loosens every constraint offset by that
   absolute amount (b ← b + relax, d ← d + relax): the δ-relaxed barrier
   of the one-step interiority correction, whose domain contains points
   just outside the true feasible set. *)
let centering_into sc x ~grad ~hess ~value =
  let pb = sc.pb in
  let tau = sc.knobs.(0) and relax = sc.knobs.(1) in
  let n = pb.n in
  let s_obj = tau *. pb.obj_scale in
  for i = 0 to n - 1 do
    sc.px.(i) <- dot pb.p.(i) x
  done;
  let fx = (0.5 *. dot x sc.px) +. dot pb.q x in
  for i = 0 to n - 1 do
    grad.(i) <- s_obj *. (sc.px.(i) +. pb.q.(i));
    let pi = pb.p.(i) and hi = hess.(i) in
    for j = 0 to n - 1 do
      hi.(j) <- s_obj *. pi.(j)
    done
  done;
  let f = ref (s_obj *. fx) in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < Array.length pb.lins do
    let { a; b } = pb.lins.(!k) in
    incr k;
    let s = b +. relax -. dot a x in
    if s <= 0.0 then ok := false
    else begin
      f := !f -. log s;
      let inv_s = 1.0 /. s in
      for i = 0 to n - 1 do
        grad.(i) <- grad.(i) +. (a.(i) *. inv_s);
        if a.(i) <> 0.0 then
          for j = 0 to n - 1 do
            hess.(i).(j) <- hess.(i).(j) +. (a.(i) *. a.(j) *. inv_s *. inv_s)
          done
      done
    end
  done;
  let k = ref 0 in
  while !ok && !k < Array.length pb.socs do
    let { l; g; c; d } = pb.socs.(!k) in
    incr k;
    let u = dot c x +. d +. relax in
    let rows_l = Mat.rows l in
    let vv = ref 0.0 in
    for r = 0 to rows_l - 1 do
      let vr = dot l.(r) x +. g.(r) in
      sc.v.(r) <- vr;
      vv := !vv +. (vr *. vr)
    done;
    let h = (u *. u) -. !vv in
    if u <= 0.0 || h <= 0.0 then ok := false
    else begin
      f := !f -. log h;
      (* grad h = 2u c - 2 Lᵀ v *)
      for j = 0 to n - 1 do
        sc.ltv.(j) <- 0.0
      done;
      for r = 0 to rows_l - 1 do
        let vr = sc.v.(r) in
        if vr <> 0.0 then
          let lr = l.(r) in
          for j = 0 to n - 1 do
            sc.ltv.(j) <- sc.ltv.(j) +. (vr *. lr.(j))
          done
      done;
      for i = 0 to n - 1 do
        sc.gh.(i) <- (2.0 *. u *. c.(i)) -. (2.0 *. sc.ltv.(i))
      done;
      let inv_h = 1.0 /. h in
      for i = 0 to n - 1 do
        grad.(i) <- grad.(i) -. (sc.gh.(i) *. inv_h)
      done;
      (* hess(-log h) = (gh ghᵀ)/h² − (2ccᵀ − 2LᵀL)/h *)
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let ltl = ref 0.0 in
          for r = 0 to rows_l - 1 do
            ltl := !ltl +. (l.(r).(i) *. l.(r).(j))
          done;
          hess.(i).(j) <-
            hess.(i).(j)
            +. (sc.gh.(i) *. sc.gh.(j) *. inv_h *. inv_h)
            -. (((2.0 *. c.(i) *. c.(j)) -. (2.0 *. !ltl)) *. inv_h)
        done
      done
    end
  done;
  if !ok && not (Float.is_nan !f) then begin
    value.(0) <- !f;
    true
  end
  else false

(* Allocating wrapper, kept for the derivative tests. *)
let centering_oracle pb tau : Newton.oracle =
 fun x ->
  let sc = scratch_for pb in
  set_barrier sc pb ~tau ~relax:0.0;
  let grad = Vec.zeros pb.n in
  let hess = Mat.zeros pb.n pb.n in
  let value = [| 0.0 |] in
  if centering_into sc x ~grad ~hess ~value then Some (value.(0), grad, hess)
  else None

(* Residual scale of one half-space at x: the natural size of the
   numbers whose difference is the slack.  Dividing a slack by it turns
   an absolute margin into a scale-free one, so a problem with its
   coefficients multiplied by 1e6 accepts exactly the same warm starts
   as the original (the absolute 1e-6 [start_margin] used to reject
   them). *)
let[@inline] lin_scale b ax = 1.0 +. Float.abs b +. Float.abs ax

let[@inline] soc_scale u nv = 1.0 +. Float.abs u +. nv

(* Minimum over all constraints of slack / residual scale, in the
   σ = (cᵀx+d) − ‖Lx+g‖ form for cones.  Positive iff x is strictly
   interior.  The cone sign is decided on h = u² − ‖v‖² — the exact
   expression the barrier oracle tests — so a point this function calls
   interior is never rejected by [centering_into] over a rounding
   disagreement between the two algebraically-equal forms.  Reads only
   x.(0 .. n-1), so phase-I can test its augmented iterate directly. *)
let[@inline] relative_slack pb x =
  let worst = ref Float.infinity in
  for k = 0 to Array.length pb.lins - 1 do
    let { a; b } = pb.lins.(k) in
    let ax = dot a x in
    worst := Float.min !worst ((b -. ax) /. lin_scale b ax)
  done;
  for k = 0 to Array.length pb.socs - 1 do
    let { c; d; _ } as s = pb.socs.(k) in
    let u = dot c x +. d in
    let vv = soc_vv s x in
    let nv = sqrt vv in
    let scale = soc_scale u nv in
    let rel =
      if u <= 0.0 then (u -. nv) /. scale
      else ((u *. u) -. vv) /. (u +. nv) /. scale
    in
    worst := Float.min !worst rel
  done;
  !worst

(* Strict interiority without derivatives, O(constraints · n) — cheap
   enough to test warm starts on the bound-oracle hot path (the full
   oracle evaluation it replaces builds an n×n Hessian).  [margin] is
   {e relative}: every constraint must clear margin × its residual
   scale, so the test is invariant under rescaling the constraint
   coefficients.  [margin = 0.] is the barrier's exact domain. *)
let min_relative_slack pb x =
  if Vec.dim x <> pb.n then
    invalid_arg "Socp.min_relative_slack: dimension mismatch";
  relative_slack pb x

let[@inline] interior_by margin pb x =
  Vec.dim x = pb.n && relative_slack pb x > margin

let is_strictly_interior ?(margin = 0.0) pb x = interior_by margin pb x

type feasibility =
  | Strictly_feasible of Vec.t
  | Infeasible of float
  | Unknown of Vec.t

(* Augment with a slack variable s (index n): every half-space becomes
   aᵀx − s <= b and every cone ‖Lx+g‖ <= cᵀx + d + s; minimise s. *)
let phase1_problem pb =
  let n = pb.n in
  let extend v extra = Array.append v [| extra |] in
  let lins = Array.map (fun { a; b } -> { a = extend a (-1.0); b }) pb.lins in
  let socs =
    Array.map
      (fun { l; g; c; d } ->
        { l = Array.map (fun row -> extend row 0.0) l; g; c = extend c 1.0; d })
      pb.socs
  in
  of_parts ~p:(Mat.zeros (n + 1) (n + 1)) ~q:(extend (Vec.zeros n) 1.0) ~lins
    ~socs (n + 1)

let find_strictly_feasible ?(params = default_params) ?(margin = 1e-9) pb
    ~start =
  if Vec.dim start <> pb.n then
    invalid_arg "Socp.find_strictly_feasible: start dimension";
  (* The margin is relative (slack over residual scale), so the
     feasibility verdict does not change under a rescaling of the
     constraint coefficients. *)
  if relative_slack pb start >= margin then
    Strictly_feasible (Vec.copy start)
  else begin
    (* The expensive path: an actual phase-I barrier solve (the early
       return above is the cheap already-interior case and stays
       unobserved).  This span vs. its absence is exactly the
       phase-I-paid vs. warm-path distinction in a trace. *)
    let t0 = Obs.Clock.now_ns () in
    let v0 = max_violation pb start in
    let aug = phase1_problem pb in
    let s0 = (Float.max v0 0.0) +. 1.0 +. (0.1 *. Float.abs v0) in
    let z = ref (Array.append start [| s0 |]) in
    let sc = scratch_for aug in
    (* Custom outer loop so we can stop as soon as s goes negative. *)
    let nu = float_of_int (barrier_nu aug) in
    let tau = ref params.tau0 in
    let result = ref None in
    let outer = ref 0 in
    while !result = None && !outer < params.max_outer do
      incr outer;
      set_barrier sc aug ~tau:!tau ~relax:0.0;
      let status =
        Newton.minimize_into ~params:params.newton sc.ws centering_into sc !z
      in
      z := Newton.point sc.ws;
      let s = !z.(aug.n - 1) in
      (* The constraints of [pb] read only the first n coordinates, so
         the test runs on z itself; x is copied out only when kept. *)
      if relative_slack pb !z >= margin then
        result := Some (Strictly_feasible (Array.sub !z 0 pb.n))
      else begin
        let gap = nu /. !tau in
        let dead =
          match status with
          | Newton.Stalled | Newton.Diverged -> true
          | Newton.Converged | Newton.Iteration_limit -> false
        in
        if gap <= params.gap_tol || dead then begin
          (* s is an upper bound on s*; s - gap is a lower bound. *)
          if s -. gap > margin then result := Some (Infeasible (s -. gap))
          else result := Some (Unknown (Array.sub !z 0 pb.n))
        end
        else tau := params.mu *. !tau
      end
    done;
    let fr =
      match !result with
      | Some r -> r
      | None -> Unknown (Array.sub !z 0 pb.n)
    in
    if Obs.Metrics.enabled () then Obs.Metrics.incr m_phase1_total;
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~cat:"socp" "socp.phase1" ~t0_ns:t0
        ~dur_ns:(Obs.Clock.now_ns () - t0)
        ~args:
          [
            ("outer", Obs.Trace.Int !outer);
            ( "result",
              Obs.Trace.Str
                (match fr with
                | Strictly_feasible _ -> "strictly_feasible"
                | Infeasible _ -> "infeasible"
                | Unknown _ -> "unknown") );
          ];
    fr
  end

(* ------------------------------------------------------------------ *)
(* Warm-start interiority repair                                       *)
(* ------------------------------------------------------------------ *)

(* Pull x toward [target] just far enough that every constraint clears
   margin × its residual scale.  Per-constraint safe blends are exact
   for half-spaces (affine slack) and certified for cones by concavity:
   σ(α) = u(α) − ‖v(α)‖ is concave along the segment (affine minus
   convex), so the chord (1−α)σ(x) + ασ(target) under-estimates it and
   a blend clearing the chord bound clears the true slack.  The residual
   scales are likewise bounded by their endpoint maxima (|aᵀ·|, |u| and
   ‖v‖ are convex).  [None] when the target itself does not clear the
   margin — the caller falls back to the Newton correction. *)
let pull_to_interior ?(margin = 1e-8) pb ~target x =
  if Vec.dim x <> pb.n || Vec.dim target <> pb.n then None
  else begin
    let alpha = ref 0.0 in
    let ok = ref true in
    (* A constraint with slack below its safe margin at x needs at least
       α = (m − σx)/(σt − σx) of the way toward the target. *)
    for k = 0 to Array.length pb.lins - 1 do
      if !ok then begin
        let { a; b } = pb.lins.(k) in
        let ax = dot a x and at = dot a target in
        let m = margin *. Float.max (lin_scale b ax) (lin_scale b at) in
        let sx = b -. ax and st = b -. at in
        if st <= m then ok := false
        else if sx < m then alpha := Float.max !alpha ((m -. sx) /. (st -. sx))
      end
    done;
    for k = 0 to Array.length pb.socs - 1 do
      if !ok then begin
        let { c; d; _ } as s = pb.socs.(k) in
        let ux = dot c x +. d and ut = dot c target +. d in
        let nvx = sqrt (soc_vv s x) and nvt = sqrt (soc_vv s target) in
        let m = margin *. Float.max (soc_scale ux nvx) (soc_scale ut nvt) in
        let sx = ux -. nvx and st = ut -. nvt in
        if st <= m then ok := false
        else if sx < m then alpha := Float.max !alpha ((m -. sx) /. (st -. sx))
      end
    done;
    if not !ok then None
    else begin
      let a = Float.min 1.0 !alpha in
      let y = Vec.copy x in
      if not (a <= 0.0) then
        for i = 0 to pb.n - 1 do
          y.(i) <- x.(i) +. (a *. (target.(i) -. x.(i)))
        done;
      (* The chord bound is exact arithmetic; re-verify against floating
         rounding at a fraction of the margin before handing the point
         to the barrier. *)
      if interior_by (0.25 *. margin) pb y then Some y else None
    end
  end

(* One-step infeasible-start Newton correction: relax every constraint
   by the smallest absolute δ that makes x clear margin × scale on the
   relaxed problem (so x is certifiably inside the relaxed barrier's
   domain), take a single damped Newton step on the relaxed pure barrier
   (τ = 0 — the step aims at the relaxed analytic center, i.e. straight
   inward), and keep the result iff it is strictly interior to the
   {e true} constraints.  No heap allocation beyond the returned
   vector: the oracle and the step run in the per-domain scratch. *)
let correct_to_interior ?(params = default_params) ?(margin = 1e-8) pb x =
  if Vec.dim x <> pb.n then None
  else begin
    let delta = ref 0.0 in
    for k = 0 to Array.length pb.lins - 1 do
      let { a; b } = pb.lins.(k) in
      let ax = dot a x in
      let need = (margin *. lin_scale b ax) -. (b -. ax) in
      delta := Float.max !delta need
    done;
    for k = 0 to Array.length pb.socs - 1 do
      let { c; d; _ } as s = pb.socs.(k) in
      let u = dot c x +. d in
      let nv = sqrt (soc_vv s x) in
      let need = (margin *. soc_scale u nv) -. (u -. nv) in
      delta := Float.max !delta need
    done;
    if not (Float.is_finite !delta) then None
    else if !delta <= 0.0 then Some (Vec.copy x)
    else begin
      let sc = scratch_for pb in
      let dst = Vec.zeros pb.n in
      set_barrier sc pb ~tau:0.0 ~relax:!delta;
      if
        Newton.step_into ~params:params.newton sc.ws centering_into sc x ~dst
        && interior_by (0.25 *. margin) pb dst
      then Some dst
      else None
    end
  end

type warm_prep = Warm_interior | Warm_pulled | Warm_corrected

(* The warm-start decision tree (doc/solver.mld): accept a certifiably
   interior start as-is; otherwise pull it toward the caller's interior
   target; otherwise take one corrective Newton step.  [None] means the
   caller must solve cold (phase-I). *)
let prepare_warm_start ?(params = default_params) ?(margin = 1e-8) ?target pb
    x =
  if Vec.dim x <> pb.n then None
  else if interior_by margin pb x then Some (x, Warm_interior)
  else begin
    let pulled =
      match target with
      | Some t -> pull_to_interior ~margin pb ~target:t x
      | None -> None
    in
    match pulled with
    | Some y ->
        if Obs.Metrics.enabled () then Obs.Metrics.incr m_warm_pull_total;
        if Obs.Trace.enabled () then
          Obs.Trace.instant ~cat:"socp" "socp.warm_pull";
        Some (y, Warm_pulled)
    | None -> (
        match correct_to_interior ~params ~margin pb x with
        | Some y ->
            if Obs.Metrics.enabled () then
              Obs.Metrics.incr m_warm_correct_total;
            if Obs.Trace.enabled () then
              Obs.Trace.instant ~cat:"socp" "socp.warm_correct";
            Some (y, Warm_corrected)
        | None -> None)
  end

(* Metrics and the trace span of one solve started at [t0]. *)
let finish_solve t0 sol =
  let dns = Obs.Clock.now_ns () - t0 in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_solve_total;
    Obs.Metrics.observe m_solve_seconds (float_of_int dns *. 1e-9);
    Obs.Metrics.observe m_newton_iterations (float_of_int sol.newton_iterations)
  end;
  if Obs.Trace.enabled () then
    Obs.Trace.complete ~cat:"socp" "socp.solve" ~t0_ns:t0 ~dur_ns:dns
      ~args:
        [
          ("outer", Obs.Trace.Int sol.outer_iterations);
          ("newton", Obs.Trace.Int sol.newton_iterations);
          ( "status",
            Obs.Trace.Str
              (match sol.status with
              | Optimal -> "optimal"
              | Suboptimal -> "suboptimal") );
        ];
  sol

let solve ?(params = default_params) ?certificate pb ~start =
  if Vec.dim start <> pb.n then invalid_arg "Socp.solve: start dimension";
  (* The span covers the whole solve including any interior nudge, so a
     phase-I span nested inside it shows up as exactly the overhead the
     warm path avoids. *)
  let t0 = Obs.Clock.now_ns () in
  let start =
    if interior_by 0.0 pb start then start
    else begin
      (* The start sits on (or within roundoff of) the constraint
         boundary — common when a caller clips a warm start to the box. *)
      let blended =
        match certificate with
        | Some cert when Vec.dim cert = pb.n && interior_by 0.0 pb cert ->
            (* Pull the start toward a point the caller certifies as
               strictly interior (a phase-I output or a previous barrier
               iterate): by convexity some blend is interior, so no
               phase-I solve is needed.  Small alphas first to stay close
               to the warm start; alpha = 1 recovers the certificate. *)
            let rec go = function
              | [] -> None
              | alpha :: rest ->
                  let cand =
                    Vec.init pb.n (fun i ->
                        start.(i) +. (alpha *. (cert.(i) -. start.(i))))
                  in
                  if interior_by 0.0 pb cand then Some cand else go rest
            in
            go [ 0.01; 0.1; 0.5; 1.0 ]
        | _ -> None
      in
      match blended with
      | Some x -> x
      | None ->
          (* Relative test: a start violating every constraint by at most
             start_margin × its residual scale is repairable regardless
             of how the problem is scaled. *)
          if relative_slack pb start >= -.params.start_margin then
            (* No certificate: nudge into the interior with a phase-I
               solve rather than rejecting. *)
            match find_strictly_feasible ~params pb ~start with
            | Strictly_feasible x -> x
            | Infeasible _ | Unknown _ ->
                invalid_arg "Socp.solve: start point not strictly feasible"
          else invalid_arg "Socp.solve: start point not strictly feasible"
    end
  in
  let sc = scratch_for pb in
  let nu = float_of_int (barrier_nu pb) in
  if nu = 0.0 then begin
    (* Unconstrained QP: single Newton solve. *)
    set_barrier sc pb ~tau:1.0 ~relax:0.0;
    let status =
      Newton.minimize_into ~params:params.newton sc.ws centering_into sc start
    in
    let x = Vec.copy (Newton.point sc.ws) in
    let diverged = status = Newton.Diverged in
    finish_solve t0
      { x; objective = objective_value pb x;
        gap_bound = (if diverged then Float.infinity else 0.0);
        tau_final = Float.infinity;
        outer_iterations = 0; newton_iterations = Newton.iterations sc.ws;
        status = (if diverged then Suboptimal else Optimal) }
  end
  else begin
    (* Each centering restarts from the previous one's point, which
       stays in the workspace. *)
    let x = ref start in
    let tau = ref params.tau0 in
    let outer = ref 0 in
    let newton_total = ref 0 in
    let stalled = ref false in
    while nu /. !tau > params.gap_tol && !outer < params.max_outer
          && not !stalled do
      incr outer;
      set_barrier sc pb ~tau:!tau ~relax:0.0;
      let status =
        Newton.minimize_into ~params:params.newton sc.ws centering_into sc !x
      in
      newton_total := !newton_total + Newton.iterations sc.ws;
      x := Newton.point sc.ws;
      (match status with
      | Newton.Stalled | Newton.Diverged -> stalled := true
      | Newton.Converged | Newton.Iteration_limit -> ());
      tau := params.mu *. !tau
    done;
    let gap = nu /. !tau *. params.mu (* gap before the last multiply *) in
    let status =
      if nu /. !tau <= params.gap_tol || gap <= params.gap_tol then Optimal
      else Suboptimal
    in
    (* Never hand out the caller's start or the workspace buffer. *)
    let x = Vec.copy !x in
    finish_solve t0
      { x; objective = objective_value pb x; gap_bound = gap;
        (* The tau the point was last centered at: !tau was multiplied
           once more after the final centering, so divide it back.
           gap_bound = ν / tau_final by construction. *)
        tau_final = !tau /. params.mu;
        outer_iterations = !outer; newton_iterations = !newton_total; status }
  end

let centering_oracle_for_tests = centering_oracle

let solve_auto ?(params = default_params) pb ~start =
  match find_strictly_feasible ~params pb ~start with
  | Strictly_feasible x -> Some (solve ~params pb ~start:x)
  | Infeasible _ | Unknown _ -> None

(* ------------------------------------------------------------------ *)
(* Independent dual certificates (Neumaier–Shcherbina safe bounds)     *)
(* ------------------------------------------------------------------ *)

(* The primal objective of a barrier solve is {e not} a lower bound on
   the optimum — a stalled Newton iteration, a jittered Cholesky or
   plain roundoff can leave it above or below the truth, and a bound
   that overstates silently prunes the true optimum out of a
   branch-and-bound search.  The cure is classical (Neumaier &
   Shcherbina, Math. Prog. 2004; Jansson's rigorous SDP/SOCP bounds):
   build a {e dual feasible} point from the terminal barrier iterate,
   repair its approximate feasibility with a closed-form projection,
   and evaluate the resulting dual objective in outward-rounded
   interval arithmetic.  Weak duality then makes the result a true
   lower bound {e whatever} the primal solve did.

   Derivation, in the sign convention of this file (minimise
   f(x) = s·(½xᵀPx + qᵀx), s = [obj_scale] > 0, over aᵢᵀx ≤ bᵢ and
   ‖Lⱼx+gⱼ‖ ≤ cⱼᵀx+dⱼ, P positive semidefinite):

   for any λ ≥ 0 and cone pairs (wⱼ, zⱼ) with ‖zⱼ‖ ≤ wⱼ, every
   feasible y satisfies

     f(y) ≥ ½s·yᵀPy + rᵀy − κ,
       r = s·q + Σᵢ λᵢaᵢ + Σⱼ (Lⱼᵀzⱼ − wⱼcⱼ),
       κ = Σᵢ λᵢbᵢ + Σⱼ (wⱼdⱼ − zⱼᵀgⱼ)

   (each added term is ≤ 0 on the feasible set: λᵢ(aᵢᵀy − bᵢ) ≤ 0 and
   zⱼᵀ(Lⱼy+gⱼ) − wⱼ(cⱼᵀy+dⱼ) ≤ 0 by cone self-duality).  Since s·P is
   PSD, the quadratic supports its tangent plane at the primal iterate
   x*:  ½s·yᵀPy ≥ [s·Px*]ᵀy − ½s·x*ᵀPx*.  Writing ρ = s·Px* + r — the
   Lagrangian stationarity residual, tiny at a centered iterate but
   never assumed zero — gives, over any coordinate box [xlo, xhi]
   containing the feasible set,

     f(y) ≥ Σᵢ min(ρᵢ·xloᵢ, ρᵢ·xhiᵢ) − ½s·x*ᵀPx* − κ.

   Validity needs {e only} λ ≥ 0 and ‖zⱼ‖ ≤ wⱼ (both enforced exactly,
   with an upward-rounded norm for the cone test); the {e quality} of
   the bound — how close it lands to the primal objective — is what
   depends on how well the solve actually converged.  At a τ-centered
   point the multipliers below give a slack of about ν/τ, i.e. the
   certified bound is typically {e tighter} than the heuristic
   [objective − 2·gap_bound] it replaces.

   Multipliers from the terminal iterate (barrier stationarity at
   weight τ = tau_final):  λᵢ = 1/(τ·sᵢ) with sᵢ = bᵢ − aᵢᵀx*, and per
   cone, with u = cᵀx*+d, v = Lx*+g, h = u² − ‖v‖²:  wⱼ = 2u/(τh),
   zⱼ = 2v/(τh).  Repair: any multiplier that comes out negative,
   non-finite, or from a violated constraint is clipped to 0 (always
   dual-feasible); a z with upward-rounded norm above w is shrunk onto
   the cone, or the pair is zeroed.  The only true failure modes are a
   non-finite dual value (a residual ρᵢ ≠ 0 on an unbounded
   coordinate) and an excessive primal-dual slack. *)

type certificate = { dual_value : float; slack : float; repaired : bool }

type cert_failure =
  | Cert_repair_failed of string
  | Cert_gap_excessive of float

let describe_cert_failure = function
  | Cert_repair_failed msg -> Printf.sprintf "repair failed: %s" msg
  | Cert_gap_excessive slack ->
      Printf.sprintf "primal-dual slack %.3g exceeds the trust threshold"
        slack

(* Directed ("outward") rounding.  OCaml floats round to nearest, so
   the true real result of one IEEE +, −, × is strictly within one ulp
   of the computed value; stepping one representable float outward
   therefore encloses it.  [Float.pred infinity = max_float] would
   {e shrink} an infinite endpoint, hence the guards. *)
let[@inline] dir_up x = if x = Float.infinity then x else Float.succ x
let[@inline] dir_down x = if x = Float.neg_infinity then x else Float.pred x

(* Kahan convention: 0 · ±∞ = 0.  An exactly-zero factor contributes
   exactly zero to a product range even when the other interval is
   unbounded — the case the residual-absorption step hits when a
   stationarity residual is exactly 0 on a half-open box. *)
let[@inline] prod x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

(* The certificate's interval arithmetic works on unboxed endpoint
   pairs: an interval [lo, hi] is two floats in locals or in the
   per-domain arrays below, never an [Interval.t].  Every operation is
   the closed interval operation followed by one outward step per
   endpoint.  A NaN endpoint (from NaN data or ∞ − ∞) or an empty
   harvested box raises [Invalid_argument] with exactly the message
   [Interval.make] gives, and the certificate reports it as a failure,
   never as a bound. *)
let[@inline] check lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN bound";
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo %g > hi %g" lo hi)

(* A data value entering the arithmetic as the point interval [x, x]. *)
let[@inline] point x = if Float.is_nan x then invalid_arg "Interval.make: NaN bound"

let[@inline] mul_lo alo ahi blo bhi =
  Float.min
    (Float.min (prod alo blo) (prod alo bhi))
    (Float.min (prod ahi blo) (prod ahi bhi))

let[@inline] mul_hi alo ahi blo bhi =
  Float.max
    (Float.max (prod alo blo) (prod alo bhi))
    (Float.max (prod ahi blo) (prod ahi bhi))

(* Per-domain certificate buffers, grown on demand and never shrunk:
   the multipliers, the cone vectors z (concatenated, one slice per
   cone), the interval residual r (then ρ, in place) and the harvested
   box. *)
type cert_scratch = {
  mutable lam : float array;  (* λᵢ per half-space; 0 = clipped *)
  mutable w : float array;  (* wⱼ per cone; 0 = pair zeroed *)
  mutable z : float array;
  mutable rlo : float array;
  mutable rhi : float array;
  mutable xlo : float array;
  mutable xhi : float array;
}

let cert_key =
  Domain.DLS.new_key (fun () ->
      { lam = [||]; w = [||]; z = [||]; rlo = [||]; rhi = [||]; xlo = [||];
        xhi = [||] })

let cert_scratch_for pb =
  let cs = Domain.DLS.get cert_key in
  let grow a len = if Array.length a >= len then a else Array.make len 0.0 in
  let rows = ref 0 in
  for k = 0 to Array.length pb.socs - 1 do
    rows := !rows + Mat.rows pb.socs.(k).l
  done;
  cs.lam <- grow cs.lam (Array.length pb.lins);
  cs.w <- grow cs.w (Array.length pb.socs);
  cs.z <- grow cs.z !rows;
  cs.rlo <- grow cs.rlo pb.n;
  cs.rhi <- grow cs.rhi pb.n;
  cs.xlo <- grow cs.xlo pb.n;
  cs.xhi <- grow cs.xhi pb.n;
  cs

(* Upper bound on the Euclidean norm of z.(off .. off+len−1):
   upward-rounded sum of upward-rounded squares, then an upward step
   over the correctly-rounded sqrt. *)
let[@inline] norm2_up z off len =
  let s = ref 0.0 in
  for r = off to off + len - 1 do
    s := dir_up (!s +. dir_up (z.(r) *. z.(r)))
  done;
  dir_up (sqrt !s)

(* The dual multipliers from the terminal iterate, repaired into the
   dual-feasible set (see above), into [cs]; true iff any needed the
   repair. *)
let dual_multipliers cs pb x tau =
  let repaired = ref false in
  for k = 0 to Array.length pb.lins - 1 do
    let { a; b } = pb.lins.(k) in
    let sl = b -. dot a x in
    let lam = 1.0 /. (tau *. sl) in
    if sl > 0.0 && Float.is_finite lam && lam > 0.0 then cs.lam.(k) <- lam
    else begin
      repaired := true;
      cs.lam.(k) <- 0.0
    end
  done;
  let off = ref 0 in
  for k = 0 to Array.length pb.socs - 1 do
    let { l; g; c; d } as soc = pb.socs.(k) in
    let rows = Mat.rows l in
    let u = dot c x +. d in
    let vv = soc_vv soc x in
    let h = (u *. u) -. vv in
    let w = 2.0 *. u /. (tau *. h) in
    cs.w.(k) <- 0.0;
    if not (u > 0.0 && h > 0.0 && Float.is_finite w && w > 0.0) then
      repaired := true
    else begin
      let z = cs.z and o = !off in
      for r = 0 to rows - 1 do
        z.(o + r) <- 2.0 *. (dot l.(r) x +. g.(r)) /. (tau *. h)
      done;
      (* ‖z‖ ≤ w is part of dual feasibility, so the norm test must be
         rigorous: shrink z onto the cone (checking with the
         upward-rounded norm each time), zero the pair if a few shrinks
         do not land inside. *)
      let tries = ref 3 and settled = ref false in
      while not !settled do
        let nz = norm2_up z o rows in
        if Float.is_finite nz && nz <= w then begin
          cs.w.(k) <- w;
          settled := true
        end
        else if !tries = 0 then settled := true
        else begin
          repaired := true;
          let scale = w /. nz *. (1.0 -. 1e-12) in
          if Float.is_finite scale && scale > 0.0 then begin
            for r = o to o + rows - 1 do
              z.(r) <- scale *. z.(r)
            done;
            decr tries
          end
          else settled := true
        end
      done;
      if cs.w.(k) = 0.0 then repaired := true
    end;
    off := !off + rows
  done;
  !repaired

(* The certified dual value: a rigorous lower bound on the enclosure of
   Σᵢ min over the box of ρᵢ·xᵢ − ½s·x*ᵀPx* − κ.
   @raise Invalid_argument on a NaN endpoint or an empty box. *)
let dual_bound cs pb x =
  let n = pb.n and s_obj = pb.obj_scale in
  let rlo = cs.rlo and rhi = cs.rhi in
  (* r = s·q + Σ λᵢaᵢ + Σ (Lⱼᵀzⱼ − wⱼcⱼ) *)
  for i = 0 to n - 1 do
    point pb.q.(i);
    let p = prod s_obj pb.q.(i) in
    rlo.(i) <- dir_down p;
    rhi.(i) <- dir_up p
  done;
  let klo = ref 0.0 and khi = ref 0.0 in
  for k = 0 to Array.length pb.lins - 1 do
    let { a; b } = pb.lins.(k) in
    let lam = cs.lam.(k) in
    if lam <> 0.0 then begin
      for i = 0 to n - 1 do
        if a.(i) <> 0.0 then begin
          point a.(i);
          let p = prod lam a.(i) in
          let lo = dir_down (rlo.(i) +. dir_down p)
          and hi = dir_up (rhi.(i) +. dir_up p) in
          check lo hi;
          rlo.(i) <- lo;
          rhi.(i) <- hi
        end
      done;
      point b;
      let p = prod lam b in
      let lo = dir_down (!klo +. dir_down p) and hi = dir_up (!khi +. dir_up p) in
      check lo hi;
      klo := lo;
      khi := hi
    end
  done;
  let off = ref 0 in
  for k = 0 to Array.length pb.socs - 1 do
    let { l; g; c; d } = pb.socs.(k) in
    let rows = Mat.rows l in
    let w = cs.w.(k) and z = cs.z and o = !off in
    if w <> 0.0 then begin
      for i = 0 to n - 1 do
        point c.(i);
        let p = prod (-.w) c.(i) in
        let alo = ref (dir_down p) and ahi = ref (dir_up p) in
        for rr = 0 to rows - 1 do
          let zr = z.(o + rr) in
          if zr <> 0.0 && l.(rr).(i) <> 0.0 then begin
            point l.(rr).(i);
            let p = prod zr l.(rr).(i) in
            let lo = dir_down (!alo +. dir_down p)
            and hi = dir_up (!ahi +. dir_up p) in
            check lo hi;
            alo := lo;
            ahi := hi
          end
        done;
        let lo = dir_down (rlo.(i) +. !alo) and hi = dir_up (rhi.(i) +. !ahi) in
        check lo hi;
        rlo.(i) <- lo;
        rhi.(i) <- hi
      done;
      point d;
      let p = prod w d in
      let lo = dir_down (!klo +. dir_down p) and hi = dir_up (!khi +. dir_up p) in
      check lo hi;
      klo := lo;
      khi := hi;
      for rr = 0 to rows - 1 do
        let zr = z.(o + rr) in
        if zr <> 0.0 && g.(rr) <> 0.0 then begin
          point g.(rr);
          (* κ ← κ − z·g *)
          let p = prod zr g.(rr) in
          let lo = dir_down (!klo +. -.dir_up p)
          and hi = dir_up (!khi +. -.dir_down p) in
          check lo hi;
          klo := lo;
          khi := hi
        end
      done
    end;
    off := !off + rows
  done;
  (* ρ = s·Px* + r (into r's arrays) and the tangent offset ½s·x*ᵀPx*,
     sharing the s·Px* enclosures. *)
  let qlo = ref 0.0 and qhi = ref 0.0 in
  for i = 0 to n - 1 do
    let pi = pb.p.(i) in
    let plo = ref 0.0 and phi = ref 0.0 in
    for j = 0 to n - 1 do
      if pi.(j) <> 0.0 && x.(j) <> 0.0 then begin
        point pi.(j);
        let p = prod pi.(j) x.(j) in
        let lo = dir_down (!plo +. dir_down p) and hi = dir_up (!phi +. dir_up p) in
        check lo hi;
        plo := lo;
        phi := hi
      end
    done;
    let slo = dir_down (mul_lo s_obj s_obj !plo !phi)
    and shi = dir_up (mul_hi s_obj s_obj !plo !phi) in
    check slo shi;
    let xi = x.(i) in
    let mlo = dir_down (mul_lo xi xi slo shi) and mhi = dir_up (mul_hi xi xi slo shi) in
    check mlo mhi;
    let lo = dir_down (!qlo +. mlo) and hi = dir_up (!qhi +. mhi) in
    check lo hi;
    qlo := lo;
    qhi := hi;
    let lo = dir_down (slo +. rlo.(i)) and hi = dir_up (shi +. rhi.(i)) in
    check lo hi;
    rlo.(i) <- lo;
    rhi.(i) <- hi
  done;
  (* Coordinate box containing the feasible set, harvested from the
     single-nonzero half-space rows (the ±eᵢ box rows every LDA-FP
     relaxation carries; restriction preserves the shape).  Directed
     division keeps the harvested box outer. *)
  let xlo = cs.xlo and xhi = cs.xhi in
  Array.fill xlo 0 n Float.neg_infinity;
  Array.fill xhi 0 n Float.infinity;
  for k = 0 to Array.length pb.lins - 1 do
    let { a; b } = pb.lins.(k) in
    let idx = ref (-1) and count = ref 0 in
    for i = 0 to Array.length a - 1 do
      if a.(i) <> 0.0 then begin
        incr count;
        idx := i
      end
    done;
    if !count = 1 then begin
      let i = !idx in
      let ai = a.(i) in
      if ai > 0.0 then xhi.(i) <- Float.min xhi.(i) (dir_up (b /. ai))
      else xlo.(i) <- Float.max xlo.(i) (dir_down (b /. ai))
    end
  done;
  (* bound = Σ min over the box of ρᵢ·xᵢ − ½s·x*ᵀPx* − κ *)
  let llo = ref (dir_down (-.(0.5 *. !qhi) +. -. !khi))
  and lhi = ref (dir_up (-.(0.5 *. !qlo) +. -. !klo)) in
  check !llo !lhi;
  for i = 0 to n - 1 do
    check xlo.(i) xhi.(i);
    let mlo = dir_down (mul_lo rlo.(i) rhi.(i) xlo.(i) xhi.(i))
    and mhi = dir_up (mul_hi rlo.(i) rhi.(i) xlo.(i) xhi.(i)) in
    check mlo mhi;
    let lo = dir_down (!llo +. mlo) and hi = dir_up (!lhi +. mhi) in
    check lo hi;
    llo := lo;
    lhi := hi
  done;
  !llo

let certify_lower_bound ?(max_rel_slack = 0.1) pb sol =
  if Obs.Metrics.enabled () then Obs.Metrics.incr m_cert_total;
  let fail reason =
    if Obs.Metrics.enabled () then Obs.Metrics.incr m_cert_failed_total;
    Error (Cert_repair_failed reason)
  in
  let x = sol.x in
  let tau = sol.tau_final in
  let s_obj = pb.obj_scale in
  let constrained = Array.length pb.lins > 0 || Array.length pb.socs > 0 in
  if Vec.dim x <> pb.n then fail "solution dimension mismatch"
  else if not (Array.for_all Float.is_finite x) then
    fail "non-finite primal iterate"
  else if not (Float.is_finite s_obj && s_obj > 0.0) then
    fail "objective scale not positive"
  else if constrained && not (Float.is_finite tau && tau > 0.0) then
    fail (Printf.sprintf "unusable terminal barrier weight %h" tau)
  else begin
    let cs = cert_scratch_for pb in
    let repaired = dual_multipliers cs pb x tau in
    match dual_bound cs pb x with
    | exception Invalid_argument msg ->
        fail (Printf.sprintf "interval evaluation: %s" msg)
    | dual_value ->
        if not (Float.is_finite dual_value) then
          fail
            "dual value not finite (nonzero residual on an unbounded \
             coordinate)"
        else begin
          let slack = sol.objective -. dual_value in
          if Obs.Metrics.enabled () then
            Obs.Metrics.observe m_cert_slack (Float.max slack 1e-12);
          if slack > max_rel_slack *. (1.0 +. Float.abs sol.objective) then begin
            if Obs.Metrics.enabled () then
              Obs.Metrics.incr m_cert_failed_total;
            Error (Cert_gap_excessive slack)
          end
          else begin
            if repaired && Obs.Metrics.enabled () then
              Obs.Metrics.incr m_cert_repaired_total;
            Ok { dual_value; slack; repaired }
          end
        end
  end
