open Linalg

type oracle = Vec.t -> (float * Vec.t * Mat.t) option

type params = { tol : float; max_iter : int; alpha : float; beta : float }

let default_params = { tol = 1e-9; max_iter = 80; alpha = 0.25; beta = 0.5 }

type status = Converged | Iteration_limit | Stalled | Diverged

type result = {
  x : Vec.t;
  value : float;
  iterations : int;
  decrement : float;
  status : status;
}

type 'a oracle_into =
  'a -> Vec.t -> grad:Vec.t -> hess:Mat.t -> value:float array -> bool

(* The scalars of the last [minimize_into] call.  An all-float record is
   stored flat, so updating it never boxes. *)
type scalars = { mutable fx : float; mutable dec : float }

type workspace = {
  n : int;
  grad : Vec.t;
  hess : Mat.t;
  sym : Mat.t;  (* symmetrized Hessian, input to the factorisation *)
  chol : Mat.t;  (* Cholesky factor scratch *)
  dir : Vec.t;  (* Newton direction *)
  fc : float array;  (* the oracle's value slot *)
  last : scalars;
  mutable iterations : int;
  mutable xa : Vec.t;  (* current iterate *)
  mutable xb : Vec.t;  (* line-search candidate; swapped on acceptance *)
}

let workspace n =
  if n < 0 then invalid_arg "Newton.workspace: negative dimension";
  {
    n;
    grad = Vec.zeros n;
    hess = Mat.zeros n n;
    sym = Mat.zeros n n;
    chol = Mat.zeros n n;
    dir = Vec.zeros n;
    fc = [| 0.0 |];
    last = { fx = 0.0; dec = 0.0 };
    iterations = 0;
    xa = Vec.zeros n;
    xb = Vec.zeros n;
  }

let workspace_dim ws = ws.n
let point ws = ws.xa
let iterations ws = ws.iterations

(* dir ← −H⁻¹g for the symmetrized Hessian in [ws], via jittered
   Cholesky: the barrier Hessian is positive definite in the domain
   interior but may be numerically semidefinite near the analytic
   center of a thin box.  Returns g·d, which must be taken now:
   candidate evaluations clobber the shared gradient buffer, and the
   line-search test needs the current point's directional derivative on
   every try. *)
let[@inline] newton_direction ws =
  Mat.symmetrize_into ws.hess ~dst:ws.sym;
  let (_ : float) = Cholesky.factor_jittered_into ws.sym ~dst:ws.chol in
  for i = 0 to ws.n - 1 do
    ws.dir.(i) <- -.ws.grad.(i)
  done;
  Cholesky.solve_factored_into ws.chol ws.dir ~dst:ws.dir;
  let gd = ref 0.0 in
  for i = 0 to ws.n - 1 do
    gd := !gd +. (ws.grad.(i) *. ws.dir.(i))
  done;
  !gd

let minimize_into ~params ws oracle st x0 =
  if Vec.dim x0 <> ws.n then
    invalid_arg "Newton.minimize_into: dimension mismatch";
  Array.blit x0 0 ws.xa 0 ws.n;
  if not (oracle st ws.xa ~grad:ws.grad ~hess:ws.hess ~value:ws.fc) then
    invalid_arg "Newton.minimize: start point outside domain";
  let fx = ref ws.fc.(0) in
  let iter = ref 0 in
  let dec = ref Float.infinity in
  let status = ref Iteration_limit in
  let continue = ref true in
  while !continue && !iter < params.max_iter do
    incr iter;
    let gd = newton_direction ws in
    let lambda_sq = -.gd in
    dec := 0.5 *. lambda_sq;
    if Float.is_nan !dec then begin
      (* A NaN decrement (NaN gradient/Hessian entries, or a Newton
         system solved into NaNs) used to be reported as Converged,
         silently handing callers a bogus centering point.  Surface it
         so Socp can report Suboptimal instead. *)
      status := Diverged;
      continue := false
    end
    else if !dec <= params.tol then begin
      status := Converged;
      continue := false
    end
    else begin
      (* Backtracking line search on f with domain rejection. *)
      let t = ref 1.0 in
      let accepted = ref false in
      let tries = ref 0 in
      while (not !accepted) && !tries < 60 do
        incr tries;
        for i = 0 to ws.n - 1 do
          ws.xb.(i) <- (!t *. ws.dir.(i)) +. ws.xa.(i)
        done;
        if
          oracle st ws.xb ~grad:ws.grad ~hess:ws.hess ~value:ws.fc
          && ws.fc.(0) <= !fx +. (params.alpha *. !t *. gd)
          && not (Float.is_nan ws.fc.(0))
        then begin
          let tmp = ws.xa in
          ws.xa <- ws.xb;
          ws.xb <- tmp;
          fx := ws.fc.(0);
          accepted := true
        end
        else t := params.beta *. !t
      done;
      if not !accepted then begin
        status := Stalled;
        continue := false
      end
    end
  done;
  ws.last.fx <- !fx;
  ws.last.dec <- !dec;
  ws.iterations <- !iter;
  !status

let step_into ~params ws oracle st x0 ~dst =
  if Vec.dim x0 <> ws.n || Vec.dim dst <> ws.n then
    invalid_arg "Newton.step_into: dimension mismatch";
  Array.blit x0 0 ws.xa 0 ws.n;
  if not (oracle st ws.xa ~grad:ws.grad ~hess:ws.hess ~value:ws.fc) then false
  else begin
    let f0 = ws.fc.(0) in
    let gd = newton_direction ws in
    if Float.is_nan gd then false
    else begin
      (* Backtracking with domain rejection, exactly as in
         [minimize_into]; the first accepted candidate is the step. *)
      let t = ref 1.0 in
      let accepted = ref false in
      let tries = ref 0 in
      while (not !accepted) && !tries < 60 do
        incr tries;
        for i = 0 to ws.n - 1 do
          ws.xb.(i) <- (!t *. ws.dir.(i)) +. ws.xa.(i)
        done;
        if
          oracle st ws.xb ~grad:ws.grad ~hess:ws.hess ~value:ws.fc
          && ws.fc.(0) <= f0 +. (params.alpha *. !t *. gd)
          && not (Float.is_nan ws.fc.(0))
        then begin
          Array.blit ws.xb 0 dst 0 ws.n;
          accepted := true
        end
        else t := params.beta *. !t
      done;
      !accepted
    end
  end

(* The allocating oracle behind the in-place interface. *)
let eval_allocating oracle x ~grad ~hess ~value =
  match oracle x with
  | None -> false
  | Some (f, g, h) ->
      let n = Vec.dim x in
      Array.blit g 0 grad 0 n;
      for i = 0 to n - 1 do
        Array.blit h.(i) 0 hess.(i) 0 n
      done;
      value.(0) <- f;
      true

let minimize ?(params = default_params) oracle x0 =
  let ws = workspace (Vec.dim x0) in
  let status = minimize_into ~params ws eval_allocating oracle x0 in
  { x = Vec.copy ws.xa; value = ws.last.fx; iterations = ws.iterations;
    decrement = ws.last.dec; status }
