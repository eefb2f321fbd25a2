(* Tests for the optimisation substrate: intervals, priority queue,
   Newton, the barrier SOCP solver, and the branch-and-bound driver. *)

open Optim
open Linalg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol msg = Alcotest.(check (float tol)) msg

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  let iv = Interval.make ~lo:(-2.0) ~hi:3.0 in
  checkf 1e-12 "width" 5.0 (Interval.width iv);
  checkf 1e-12 "mid" 0.5 (Interval.mid iv);
  checkb "mem" true (Interval.mem iv 0.0);
  checkb "not mem" false (Interval.mem iv 4.0);
  checkf 1e-12 "clamp lo" (-2.0) (Interval.clamp iv (-9.0));
  checkf 1e-12 "clamp hi" 3.0 (Interval.clamp iv 9.0);
  checkb "bad bounds rejected" true
    (match Interval.make ~lo:1.0 ~hi:0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_interval_sup_inf_sq () =
  (* eq. 26/27: sup/inf of t² over the interval. *)
  let straddle = Interval.make ~lo:(-2.0) ~hi:3.0 in
  checkf 1e-12 "sup straddling" 9.0 (Interval.sup_sq straddle);
  checkf 1e-12 "inf straddling" 0.0 (Interval.inf_sq straddle);
  let pos = Interval.make ~lo:1.0 ~hi:4.0 in
  checkf 1e-12 "sup positive" 16.0 (Interval.sup_sq pos);
  checkf 1e-12 "inf positive" 1.0 (Interval.inf_sq pos);
  let neg = Interval.make ~lo:(-5.0) ~hi:(-2.0) in
  checkf 1e-12 "sup negative" 25.0 (Interval.sup_sq neg);
  checkf 1e-12 "inf negative" 4.0 (Interval.inf_sq neg)

let test_interval_split_intersect () =
  let iv = Interval.make ~lo:0.0 ~hi:10.0 in
  let l, r = Interval.split iv in
  checkf 1e-12 "left hi" 5.0 (Interval.hi l);
  checkf 1e-12 "right lo" 5.0 (Interval.lo r);
  let l, r = Interval.split ~at:2.0 iv in
  checkf 1e-12 "custom cut left" 2.0 (Interval.hi l);
  checkf 1e-12 "custom cut right" 2.0 (Interval.lo r);
  (match Interval.intersect iv (Interval.make ~lo:8.0 ~hi:12.0) with
  | Some i ->
      checkf 1e-12 "intersection lo" 8.0 (Interval.lo i);
      checkf 1e-12 "intersection hi" 10.0 (Interval.hi i)
  | None -> Alcotest.fail "expected overlap");
  checkb "disjoint" true
    (Interval.intersect iv (Interval.make ~lo:11.0 ~hi:12.0) = None)

let test_interval_scale_shift () =
  let iv = Interval.make ~lo:1.0 ~hi:2.0 in
  let s = Interval.scale (-2.0) iv in
  checkf 1e-12 "scale flips" (-4.0) (Interval.lo s);
  checkf 1e-12 "scale flips hi" (-2.0) (Interval.hi s);
  let t = Interval.shift 3.0 iv in
  checkf 1e-12 "shift" 4.0 (Interval.lo t)

let test_interval_directed_rounding () =
  (* The directed-rounding operations of the reference certificate
     (test/cert_reference.ml). *)
  (* wide_add strictly contains the rounded sum on both sides. *)
  let a = Interval.point 0.1 and b = Interval.point 0.2 in
  let s = Cert_reference.wide_add a b in
  checkb "sum lo below" true (Interval.lo s < 0.1 +. 0.2);
  checkb "sum hi above" true (Interval.hi s > 0.1 +. 0.2);
  (* wide_mul encloses every cross product of the endpoints. *)
  let m =
    Cert_reference.wide_mul
      (Interval.make ~lo:0.1 ~hi:0.2)
      (Interval.make ~lo:(-0.3) ~hi:0.4)
  in
  List.iter
    (fun (x, y) ->
      checkb "product enclosed" true
        (Interval.lo m <= x *. y && x *. y <= Interval.hi m))
    [ (0.1, -0.3); (0.1, 0.4); (0.2, -0.3); (0.2, 0.4) ];
  (* Kahan convention: an exactly-zero factor kills an unbounded one. *)
  let z =
    Cert_reference.wide_mul (Interval.point 0.0)
      (Interval.make ~lo:Float.neg_infinity ~hi:Float.infinity)
  in
  checkf 1e-12 "0 * [-inf,inf] lo" 0.0 (Interval.lo z);
  checkf 1e-12 "0 * [-inf,inf] hi" 0.0 (Interval.hi z);
  (* Infinite endpoints are preserved, never stepped inward or to NaN. *)
  let u = Cert_reference.wide (Interval.make ~lo:Float.neg_infinity ~hi:Float.infinity) in
  checkb "wide keeps -inf" true (Interval.lo u = Float.neg_infinity);
  checkb "wide keeps +inf" true (Interval.hi u = Float.infinity);
  (* inf - inf is NaN: the operation must refuse, not return a "bound". *)
  checkb "inf - inf raises" true
    (match Cert_reference.wide_sub (Interval.point Float.infinity)
             (Interval.point Float.infinity) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  checki "length" 5 (Pqueue.length q);
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "ascending order" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !popped)

let test_pqueue_filter () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k ()) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Pqueue.filter_in_place q (fun k () -> k < 3.5);
  checki "filtered length" 3 (Pqueue.length q);
  checkf 1e-12 "min still right" 1.0 (Pqueue.min_key q)

let test_pqueue_empty () =
  let q = Pqueue.create () in
  checkb "empty" true (Pqueue.is_empty q);
  checkb "pop none" true (Pqueue.pop q = None);
  checkf 1e-12 "min of empty is inf" Float.infinity (Pqueue.min_key q)

let test_pqueue_drop_worst () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k (int_of_float k))
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  (* Within budget: nothing dropped, infinity folds harmlessly. *)
  let d, m = Pqueue.drop_worst q ~keep:10 in
  checki "no drop" 0 d;
  checkb "no-drop bound is inf" true (m = Float.infinity);
  (* Over budget: the two largest keys go, and the smallest dropped key
     is reported (the value soundness folds into the gap). *)
  let d, m = Pqueue.drop_worst q ~keep:3 in
  checki "dropped count" 2 d;
  checkf 1e-12 "min dropped key" 4.0 m;
  checki "kept" 3 (Pqueue.length q);
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "survivors are the best, in order" [ 1.0; 2.0; 3.0 ] (List.rev !popped)

let test_pqueue_filter_releases_dropped () =
  (* [filter_in_place] must clear dead slots so dropped payloads become
     collectable — in the solver those payloads are whole search regions,
     and keeping them pinned by the backing array is a leak.  Observed
     through finalisers on the dropped boxes. *)
  let released = ref 0 in
  let q = Pqueue.create () in
  let fill () =
    for i = 0 to 63 do
      let v = ref i in
      Gc.finalise (fun _ -> incr released) v;
      Pqueue.push q (float_of_int i) v
    done
  in
  fill ();
  Pqueue.filter_in_place q (fun k _ -> k < 8.0);
  Gc.full_major ();
  Gc.full_major ();
  checki "filtered length" 8 (Pqueue.length q);
  checkb "dropped values were collected" true (!released >= 40);
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (k, v) ->
        checkf 1e-12 "payload matches key" k (float_of_int !v);
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "survivors ascending"
    [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 ]
    (List.rev !popped)

let drain_keys q =
  let rec go acc =
    match Pqueue.pop q with
    | Some (k, _) -> go (k :: acc)
    | None -> List.rev acc
  in
  go []

let test_pqueue_steal_half () =
  let src = Pqueue.create () and dst = Pqueue.create () in
  List.iter
    (fun k -> Pqueue.push src k (int_of_float k))
    [ 7.0; 3.0; 9.0; 1.0; 5.0; 8.0; 2.0 ];
  let moved = Pqueue.steal_half src dst in
  checki "moves ceil(n/2)" 4 moved;
  checki "dst length" 4 (Pqueue.length dst);
  checki "src length" 3 (Pqueue.length src);
  (* The transfer must take exactly the smallest keys — a thief that
     walks away with the worst half defeats best-first search — and
     both heaps must still pop in ascending order afterwards. *)
  Alcotest.(check (list (float 0.0)))
    "dst got the smallest keys" [ 1.0; 2.0; 3.0; 5.0 ] (drain_keys dst);
  Alcotest.(check (list (float 0.0)))
    "src kept the rest in order" [ 7.0; 8.0; 9.0 ] (drain_keys src)

let test_pqueue_steal_half_edges () =
  let src = Pqueue.create () and dst = Pqueue.create () in
  checki "empty source steals nothing" 0 (Pqueue.steal_half src dst);
  checkb "dst untouched" true (Pqueue.is_empty dst);
  Pqueue.push src 4.2 0;
  checki "a single entry moves" 1 (Pqueue.steal_half src dst);
  checkb "source drained" true (Pqueue.is_empty src);
  checkf 1e-12 "entry arrived" 4.2 (Pqueue.min_key dst)

let prop_pqueue_steal_half =
  QCheck.Test.make ~name:"steal_half takes exactly the smallest half"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (float_range (-50.0) 50.0))
    (fun keys ->
      let src = Pqueue.create () and dst = Pqueue.create () in
      List.iter (fun k -> Pqueue.push src k k) keys;
      let moved = Pqueue.steal_half src dst in
      let stolen = drain_keys dst and kept = drain_keys src in
      moved = (List.length keys + 1) / 2
      && stolen @ kept = List.sort compare keys)

let prop_pqueue_filter_heap =
  QCheck.Test.make ~name:"filter_in_place preserves heap order" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 60) (float_range (-50.0) 50.0))
        (float_range (-50.0) 50.0))
    (fun (keys, cut) ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      Pqueue.filter_in_place q (fun k _ -> k <= cut);
      let expected =
        List.sort compare (List.filter (fun k -> k <= cut) keys)
      in
      let rec drain acc =
        match Pqueue.pop q with
        | Some (k, v) -> k = v && drain (k :: acc)
        | None -> List.rev acc = expected
      in
      drain [])

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (float_range (-100.0) 100.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      List.sort compare keys = out)

(* ------------------------------------------------------------------ *)
(* Newton                                                              *)
(* ------------------------------------------------------------------ *)

let quadratic_oracle center : Newton.oracle =
 fun x ->
  (* f(x) = 1/2 ||x - c||², minimum at c *)
  let d = Vec.sub x center in
  Some (0.5 *. Vec.dot d d, d, Mat.identity (Vec.dim x))

let test_newton_quadratic () =
  let c = [| 1.0; -2.0; 0.5 |] in
  let r = Newton.minimize (quadratic_oracle c) (Vec.zeros 3) in
  checkb "converged" true (r.Newton.status = Newton.Converged);
  checkb "found center" true (Vec.approx_equal ~tol:1e-8 c r.Newton.x)

let test_newton_log_barrier_1d () =
  (* f(x) = x - log(1 - x), domain x < 1; f' = 1 + 1/(1-x) > 0 always:
     decreasing x helps; but domain also requires... actually minimise
     f(x) = -log(x) - log(1 - x): minimum at x = 1/2. *)
  let oracle : Newton.oracle =
   fun x ->
    let v = x.(0) in
    if v <= 0.0 || v >= 1.0 then None
    else
      Some
        ( -.log v -. log (1.0 -. v),
          [| (-1.0 /. v) +. (1.0 /. (1.0 -. v)) |],
          [| [| (1.0 /. (v *. v)) +. (1.0 /. ((1.0 -. v) *. (1.0 -. v))) |] |]
        )
  in
  let r = Newton.minimize oracle [| 0.9 |] in
  checkb "converged" true (r.Newton.status = Newton.Converged);
  checkf 1e-7 "minimum at 1/2" 0.5 r.Newton.x.(0)

let test_newton_rejects_infeasible_start () =
  let oracle : Newton.oracle =
   fun x -> if x.(0) <= 0.0 then None else Some (x.(0), [| 1.0 |], [| [| 1e-9 |] |])
  in
  checkb "raises" true
    (match Newton.minimize oracle [| -1.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_newton_nan_decrement_is_diverged () =
  (* Regression: a NaN gradient makes the Newton decrement NaN, and
     [!dec <= tol] is false for NaN, so the old code fell through to the
     line search with a NaN direction and eventually reported the start
     point as Converged.  It must be surfaced as Diverged instead. *)
  let calls = ref 0 in
  let oracle : Newton.oracle =
   fun x ->
    incr calls;
    let g = if !calls = 1 then [| Float.nan |] else [| x.(0) |] in
    Some (0.5 *. x.(0) *. x.(0), g, [| [| 1.0 |] |])
  in
  let r = Newton.minimize oracle [| 3.0 |] in
  checkb "status is Diverged" true (r.Newton.status = Newton.Diverged);
  checkb "decrement is NaN" true (Float.is_nan r.Newton.decrement);
  checkf 1e-12 "last finite iterate returned" 3.0 r.Newton.x.(0)

(* ------------------------------------------------------------------ *)
(* Socp                                                                *)
(* ------------------------------------------------------------------ *)

let test_socp_box_qp () =
  (* min (x-3)² + (y+1)² s.t. -1 <= x,y <= 1: optimum at (1,-1)...
     but (y+1)² pushes y to -1 which is on the boundary. Interior-point
     converges to the boundary within gap tolerance. *)
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = [| -6.0; 2.0 |] in
  let lins = Socp.box_constraints [| -1.0; -1.0 |] [| 1.0; 1.0 |] in
  let problem = Socp.problem ~p ~q ~lins 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  checkf 1e-3 "x at bound" 1.0 sol.Socp.x.(0);
  checkf 1e-3 "y at bound" (-1.0) sol.Socp.x.(1);
  checkb "feasible" true (Socp.is_feasible ~tol:1e-7 problem sol.Socp.x)

let test_socp_unconstrained () =
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = [| -2.0; -4.0 |] in
  let problem = Socp.problem ~p ~q 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  checkb "analytic optimum" true
    (Vec.approx_equal ~tol:1e-6 [| 1.0; 2.0 |] sol.Socp.x)

let test_socp_cone_projection () =
  (* min ||x - c||² s.t. ||x|| <= 1 with c outside the ball: optimum is
     the radial projection c/||c||. *)
  let c = [| 2.0; 2.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  let problem = Socp.problem ~p ~q ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  let expected = Vec.scale (1.0 /. Vec.norm2 c) c in
  checkb "radial projection" true
    (Vec.approx_equal ~tol:1e-4 expected sol.Socp.x)

let test_socp_lower_bound_certificate () =
  (* The solver's objective minus gap must lower-bound the true optimum:
     check against the analytic cone projection value. *)
  let c = [| 3.0; 0.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  let problem = Socp.problem ~p ~q ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  (* true optimum of x² - 6x at x = 1 (cone boundary): 1 - 6 = -5 *)
  let true_min = -5.0 in
  checkb "obj >= true min" true (sol.Socp.objective >= true_min -. 1e-9);
  checkb "obj - gap <= true min" true
    (sol.Socp.objective -. sol.Socp.gap_bound <= true_min +. 1e-6)

let test_socp_certificate_analytic () =
  (* Independent dual certificate on the analytic cone projection: the
     verified dual value must lower-bound the true optimum (-5) and,
     from a healthy solve, sit close beneath it. *)
  let c = [| 3.0; 0.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  (* A box around the ball: the residual-absorption step needs bounded
     coordinates (every LDA-FP relaxation has its weight box). *)
  let lins = Socp.box_constraints [| -2.0; -2.0 |] [| 2.0; 2.0 |] in
  let problem = Socp.problem ~p ~q ~lins ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  let true_min = -5.0 in
  match Socp.certify_lower_bound problem sol with
  | Error f -> Alcotest.fail (Socp.describe_cert_failure f)
  | Ok cert ->
      checkb "dual value is a true lower bound" true
        (cert.Socp.dual_value <= true_min +. 1e-9);
      checkb "and a tight one" true (cert.Socp.dual_value >= true_min -. 1e-2);
      checkf 1e-9 "slack is objective - dual_value"
        (sol.Socp.objective -. cert.Socp.dual_value)
        cert.Socp.slack

let test_socp_certificate_survives_corrupt_primal () =
  (* The regression the certificate layer exists for: a corrupted primal
     solve.  The trusting formula [objective - 2 gap_bound] follows the
     corruption upward and would let B&B prune the optimum; the
     certificate either still reports a true lower bound or refuses
     outright — it never follows the lie. *)
  let c = [| 3.0; 0.0 |] in
  let p = Mat.scale 2.0 (Mat.identity 2) in
  let q = Vec.scale (-2.0) c in
  let cone =
    { Socp.l = Mat.identity 2; g = Vec.zeros 2; c = Vec.zeros 2; d = 1.0 }
  in
  let lins = Socp.box_constraints [| -2.0; -2.0 |] [| 2.0; 2.0 |] in
  let problem = Socp.problem ~p ~q ~lins ~socs:[ cone ] 2 in
  let sol = Socp.solve problem ~start:[| 0.0; 0.0 |] in
  let true_min = -5.0 in
  (* Corrupt the reported objective: the trusting bound overstates. *)
  let lied = { sol with Socp.objective = sol.Socp.objective +. 10.0 } in
  checkb "trusting bound follows the corruption" true
    (lied.Socp.objective -. (2.0 *. lied.Socp.gap_bound) > true_min +. 1.0);
  (match Socp.certify_lower_bound problem lied with
  | Ok cert ->
      checkb "certified bound ignores the lie" true
        (cert.Socp.dual_value <= true_min +. 1e-9)
  | Error (Socp.Cert_gap_excessive _) -> () (* refusing is equally sound *)
  | Error f -> Alcotest.fail (Socp.describe_cert_failure f));
  (* Corrupt the iterate itself: multipliers extracted from a garbage
     point still get repaired onto the dual-feasible set, so any Ok
     verdict is still a true bound (just a loose one). *)
  let garbage = { sol with Socp.x = [| 7.0; -3.0 |] } in
  match Socp.certify_lower_bound ~max_rel_slack:1e6 problem garbage with
  | Ok cert ->
      checkb "garbage-point certificate still valid" true
        (cert.Socp.dual_value <= true_min +. 1e-9)
  | Error (Socp.Cert_gap_excessive _) -> ()
  | Error f -> Alcotest.fail (Socp.describe_cert_failure f)

(* The certificate property: on random box QPs with a cone, the repaired
   dual value never exceeds a high-accuracy reference solve of the same
   problem (weak duality made checkable).  The reference objective
   upper-bounds the true optimum, so [dual_value <= reference] is the
   observable half of [dual_value <= true optimum]. *)
let prop_cert_lower_bounds_reference =
  QCheck.Test.make
    ~name:"repaired dual certificate lower-bounds a reference solve"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let base =
        Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let p =
        Mat.add_scaled_identity (0.5 *. float_of_int n)
          (Mat.mul base (Mat.transpose base))
      in
      let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let with_cone = Stats.Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.5 in
      let socs =
        if with_cone then
          let radius = Stats.Rng.uniform rng ~lo:1.0 ~hi:4.0 in
          [ { Socp.l = Mat.identity n; g = Vec.zeros n; c = Vec.zeros n;
              d = radius } ]
        else []
      in
      let pb = Socp.problem ~p ~q ~lins:(Socp.box_constraints lo hi) ~socs n in
      match Socp.solve_auto pb ~start:(Vec.zeros n) with
      | None -> false (* origin is always feasible here *)
      | Some sol -> (
          let reference =
            Socp.solve
              ~params:{ Socp.default_params with Socp.gap_tol = 1e-10 }
              pb ~start:sol.Socp.x
          in
          match Socp.certify_lower_bound pb sol with
          | Error f ->
              QCheck.Test.fail_reportf "certificate failed: %s"
                (Socp.describe_cert_failure f)
          | Ok cert ->
              if
                cert.Socp.dual_value
                > reference.Socp.objective
                  +. (1e-9 *. (1.0 +. Float.abs reference.Socp.objective))
              then
                QCheck.Test.fail_reportf
                  "dual value %.12g above reference optimum %.12g"
                  cert.Socp.dual_value reference.Socp.objective
              else true))

(* Reference equivalence: the unboxed certificate returns what the
   boxed-interval reference (test/cert_reference.ml) returns — the same
   [Ok] fields bit for bit, or the same failure with the same message —
   on three kinds of input: random box+cone SOCPs, child relaxations of
   the synthetic LDA-FP problem as the E9 chain builds them, and garbage
   iterates that exercise every failure path. *)
let same_certificate a b =
  let bits = Int64.bits_of_float in
  match (a, b) with
  | Ok x, Ok y ->
      Int64.equal (bits x.Socp.dual_value) (bits y.Socp.dual_value)
      && Int64.equal (bits x.Socp.slack) (bits y.Socp.slack)
      && x.Socp.repaired = y.Socp.repaired
  | Error (Socp.Cert_repair_failed m), Error (Socp.Cert_repair_failed m') ->
      String.equal m m'
  | Error (Socp.Cert_gap_excessive s), Error (Socp.Cert_gap_excessive s') ->
      Int64.equal (bits s) (bits s')
  | _ -> false

let show_certificate = function
  | Ok c ->
      Printf.sprintf "Ok %h (slack %h%s)" c.Socp.dual_value c.Socp.slack
        (if c.Socp.repaired then ", repaired" else "")
  | Error (Socp.Cert_gap_excessive slack) ->
      Printf.sprintf "Error gap excessive %h" slack
  | Error f -> "Error " ^ Socp.describe_cert_failure f

(* Variants of a solved iterate: as solved, jittered off the central
   path, at a wrong barrier weight, and with a shifted objective. *)
let perturbed rng (sol : Socp.solution) =
  let jitter = Stats.Rng.uniform rng ~lo:1e-9 ~hi:1e-2 in
  [
    ("solved", sol);
    ( "jittered",
      { sol with
        Socp.x =
          Array.map
            (fun xi -> xi +. Stats.Rng.uniform rng ~lo:(-.jitter) ~hi:jitter)
            sol.Socp.x } );
    ( "tau x1e-3",
      { sol with Socp.tau_final = sol.Socp.tau_final *. 1e-3 } );
    ( "tau x1e3",
      { sol with Socp.tau_final = sol.Socp.tau_final *. 1e3 } );
    ("objective +1", { sol with Socp.objective = sol.Socp.objective +. 1.0 });
  ]

let random_socp rng =
  let n = 1 + Stats.Rng.int rng 5 in
  let base =
    Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
  in
  let p =
    Mat.add_scaled_identity (0.1 *. float_of_int n)
      (Mat.mul base (Mat.transpose base))
  in
  let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
  let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
  let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
  (* A general half-space through the box, and up to two cones that
     contain the origin. *)
  let a = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let lins =
    { Socp.a; b = Stats.Rng.uniform rng ~lo:0.1 ~hi:1.0 }
    :: Socp.box_constraints lo hi
  in
  let socs =
    List.init (Stats.Rng.int rng 3) (fun _ ->
        let rows = 1 + Stats.Rng.int rng 3 in
        {
          Socp.l =
            Mat.init rows n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0);
          g = Array.init rows (fun _ -> Stats.Rng.uniform rng ~lo:(-0.2) ~hi:0.2);
          c = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-0.3) ~hi:0.3);
          d = Stats.Rng.uniform rng ~lo:1.0 ~hi:3.0;
        })
  in
  let pb = Socp.problem ~p ~q ~lins ~socs n in
  match Socp.solve_auto pb ~start:(Vec.zeros n) with
  | None -> []
  | Some sol ->
      List.map (fun (what, s) -> ("random SOCP, " ^ what, pb, s)) (perturbed rng sol)

(* The E9 chain: each child splits its parent's t-range at the parent
   optimum's projection (clamped as the branching rule clamps it), and
   is solved warm from the repaired parent point. *)
let synthetic_pb =
  lazy
    (let open Ldafp_core in
     let ds = Datasets.Synthetic.generate ~n_per_class:2000 (Stats.Rng.create 1) in
     let a, b = Datasets.Dataset.class_split ds in
     Ldafp_problem.build
       ~fmt:(Fixedpoint.Qformat.make ~k:2 ~f:5)
       (Stats.Scatter.of_data a b))

let e9_children rng =
  let open Ldafp_core in
  let pb = Lazy.force synthetic_pb in
  let params = Lda_fp.default_config.Lda_fp.socp_params in
  let wbox = pb.Ldafp_problem.elem_box in
  let relax trange =
    Ldafp_problem.relaxation pb ~wbox ~trange ~eta:(Interval.sup_sq trange)
  in
  let mid = Array.map Fixedpoint.Fx_interval.mid wbox in
  let rec walk k trange (parent : Socp.solution) acc =
    if k = 0 then acc
    else begin
      let lo = Interval.lo trange and hi = Interval.hi trange in
      let margin = 0.15 *. (hi -. lo) in
      let at =
        Float.max (lo +. margin)
          (Float.min (hi -. margin) (Ldafp_problem.t_of pb parent.Socp.x))
      in
      let l, r = Interval.split ~at trange in
      let trange = if Stats.Rng.int rng 2 = 0 then l else r in
      let child = relax trange in
      let target = Ldafp_problem.center_point pb ~wbox ~trange in
      let sol =
        match Socp.prepare_warm_start ~params ~target child parent.Socp.x with
        | Some (x0, _) ->
            let levels =
              Socp.restart_levels params ~tau_final:parent.Socp.tau_final
            in
            Some
              (Socp.solve ~params:(Socp.warm_start_params ~levels params) child
                 ~start:x0)
        | None -> Socp.solve_auto ~params child ~start:mid
      in
      match sol with
      | None -> acc
      | Some sol ->
          let cases =
            List.map
              (fun (what, s) -> ("E9 child, " ^ what, child, s))
              (perturbed rng sol)
          in
          walk (k - 1) trange sol (cases @ acc)
    end
  in
  match Socp.solve_auto ~params (relax pb.Ldafp_problem.t_root) ~start:mid with
  | None -> []
  | Some root -> walk (1 + Stats.Rng.int rng 4) pb.Ldafp_problem.t_root root []

(* Iterates and problems built to hit each failure path: NaN data, a
   non-centered iterate, an unusable barrier weight, an empty harvested
   box, a residual on an unbounded coordinate, an overflowing cone. *)
let garbage_cases rng =
  let n = 2 in
  let p = Mat.scale 2.0 (Mat.identity n) in
  let q = [| Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0; 1.0 |] in
  let box = Array.of_list (Socp.box_constraints [| -1.0; -1.0 |] [| 1.0; 1.0 |]) in
  let sol x tau =
    { Socp.x; objective = 0.0; gap_bound = 0.0; tau_final = tau;
      outer_iterations = 1; newton_iterations = 1; status = Socp.Optimal }
  in
  let x = [| Stats.Rng.uniform rng ~lo:(-0.9) ~hi:0.9; 0.3 |] in
  let tau = 10.0 ** Stats.Rng.uniform rng ~lo:(-2.0) ~hi:8.0 in
  let pb ?(p = p) ?(q = q) ?(obj_scale = 1.0) ?(socs = [||]) lins =
    Socp.of_parts ~obj_scale ~p ~q ~lins ~socs n
  in
  let cone scale =
    { Socp.l = Mat.scale scale (Mat.identity n); g = [| 0.1; 0.0 |];
      c = [| 0.0; 0.0 |]; d = 2.0 }
  in
  [
    ("non-centered iterate", pb box, sol x tau);
    ("NaN iterate", pb box, sol [| Float.nan; 0.0 |] tau);
    ("NaN barrier weight", pb box, sol x Float.nan);
    ("zero barrier weight", pb box, sol x 0.0);
    ("zero objective scale", pb ~obj_scale:0.0 box, sol x tau);
    ("NaN linear term", pb ~q:[| Float.nan; 1.0 |] box, sol x tau);
    ("NaN quadratic term", pb ~p:[| [| Float.nan; 0.0 |]; [| 0.0; 2.0 |] |] box,
     sol x tau);
    ("NaN half-space offset",
     pb (Array.append box [| { Socp.a = [| 1.0; 1.0 |]; b = Float.nan } |]),
     sol x tau);
    ("infinite half-space offset",
     pb (Array.append box [| { Socp.a = [| 1.0; 1.0 |]; b = Float.infinity } |]),
     sol x tau);
    ("empty harvested box",
     pb
       (Array.append box
          [| { Socp.a = [| 1.0; 0.0 |]; b = -2.0 } |]),
     sol x tau);
    ("residual on an unbounded coordinate",
     pb [| box.(0); box.(1); { Socp.a = [| 1.0; 1.0 |]; b = 5.0 } |],
     sol x tau);
    ("overflowing cone", pb ~socs:[| cone 1e300 |] box, sol x tau);
    ("cone", pb ~socs:[| cone 0.5 |] box, sol x tau);
    ("cone, NaN offset",
     pb ~socs:[| { (cone 0.5) with Socp.g = [| Float.nan; 0.0 |] } |] box,
     sol x tau);
  ]

let prop_cert_matches_reference =
  QCheck.Test.make ~name:"certificate matches the interval reference"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let cases = random_socp rng @ e9_children rng @ garbage_cases rng in
      List.for_all
        (fun (what, pb, sol) ->
          List.for_all
            (fun max_rel_slack ->
              let got = Socp.certify_lower_bound ~max_rel_slack pb sol in
              let want = Cert_reference.certify_lower_bound ~max_rel_slack pb sol in
              same_certificate got want
              || QCheck.Test.fail_reportf "%s (max_rel_slack %g): %s, reference %s"
                   what max_rel_slack (show_certificate got)
                   (show_certificate want))
            [ 0.1; 1e6 ])
        cases)

let test_socp_rejects_infeasible_start () =
  let lins = Socp.box_constraints [| 0.0 |] [| 1.0 |] in
  let problem = Socp.problem ~lins 1 in
  checkb "raises on outside start" true
    (match Socp.solve problem ~start:[| 5.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_socp_boundary_start_nudged () =
  (* A start exactly on the constraint boundary (violation 0, within
     [start_margin]) used to raise; it must now be nudged into the
     interior by phase-I and solved.  min (x-3)² over [0, 1] from the
     boundary start x = 1: optimum stays at the boundary. *)
  let p = Mat.scale 2.0 (Mat.identity 1) in
  let q = [| -6.0 |] in
  let lins = Socp.box_constraints [| 0.0 |] [| 1.0 |] in
  let problem = Socp.problem ~p ~q ~lins 1 in
  let sol = Socp.solve problem ~start:[| 1.0 |] in
  checkf 1e-3 "optimum at the bound" 1.0 sol.Socp.x.(0);
  checkb "feasible" true (Socp.is_feasible ~tol:1e-7 problem sol.Socp.x);
  (* Roundoff past the boundary is tolerated too... *)
  let sol' = Socp.solve problem ~start:[| 1.0 +. 1e-9 |] in
  checkf 1e-3 "roundoff-infeasible start solved" 1.0 sol'.Socp.x.(0);
  (* ...but a genuinely infeasible start is still rejected. *)
  checkb "far start still raises" true
    (match Socp.solve problem ~start:[| 5.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_phase1_finds_feasible () =
  (* Feasible region: a small box away from the start. *)
  let lins = Socp.box_constraints [| 4.0; 4.0 |] [| 5.0; 5.0 |] in
  let problem = Socp.problem ~lins 2 in
  match Socp.find_strictly_feasible problem ~start:[| 0.0; 0.0 |] with
  | Socp.Strictly_feasible x ->
      checkb "strictly inside" true (Socp.max_violation problem x < 0.0)
  | _ -> Alcotest.fail "expected feasible point"

let test_phase1_detects_infeasible () =
  (* x <= 0 and x >= 1 simultaneously: infeasible by margin 1/2. *)
  let lins =
    [
      { Socp.a = [| 1.0 |]; b = 0.0 };
      { Socp.a = [| -1.0 |]; b = -1.0 };
    ]
  in
  let problem = Socp.problem ~lins 1 in
  match Socp.find_strictly_feasible problem ~start:[| 0.5 |] with
  | Socp.Infeasible margin -> checkb "positive margin" true (margin > 0.0)
  | Socp.Strictly_feasible _ -> Alcotest.fail "claimed feasible"
  | Socp.Unknown _ -> Alcotest.fail "should certify infeasibility"

let test_solve_auto_pipeline () =
  (* min x² over [3, 5]: phase-1 must move into the box first. *)
  let p = Mat.scale 2.0 (Mat.identity 1) in
  let lins = Socp.box_constraints [| 3.0 |] [| 5.0 |] in
  let problem = Socp.problem ~p ~lins 1 in
  match Socp.solve_auto problem ~start:[| 0.0 |] with
  | Some sol -> checkf 1e-3 "optimum at lower bound" 3.0 sol.Socp.x.(0)
  | None -> Alcotest.fail "expected solution"

let test_socp_dimension_checks () =
  checkb "bad P" true
    (match Socp.problem ~p:(Mat.identity 3) 2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad lin" true
    (match Socp.problem ~lins:[ { Socp.a = [| 1.0 |]; b = 0.0 } ] 2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Bnb                                                                 *)
(* ------------------------------------------------------------------ *)

(* Toy problem: minimise a convex quadratic over integers in a range,
   regions are integer intervals, bound is the continuous minimum. *)
let integer_quadratic_oracle target =
  let cost x = (x -. target) ** 2.0 in
  {
    Bnb.bound =
      (fun (lo, hi) ->
        if lo > hi then None
        else
          let cont = Float.max (float_of_int lo) (Float.min (float_of_int hi) target) in
          let lower = cost cont in
          let cand_x = int_of_float (Float.round cont) in
          let cand_x = max lo (min hi cand_x) in
          Some { Bnb.lower; candidate = Some (cand_x, cost (float_of_int cand_x)) });
    branch =
      (fun (lo, hi) ->
        if lo >= hi then []
        else
          (* Floor division: truncating [/] on a negative two-element
             interval returns the upper endpoint, re-creating the parent
             as its own child forever. *)
          let mid = (lo + hi) asr 1 in
          [ (lo, mid); (mid + 1, hi) ]);
  }

let test_bnb_finds_integer_optimum () =
  let r = Bnb.minimize (integer_quadratic_oracle 7.3) (-100, 100) in
  (match r.Bnb.best with
  | Some (x, c) ->
      checki "optimal integer" 7 x;
      checkf 1e-12 "optimal cost" 0.09 c
  | None -> Alcotest.fail "no solution");
  checkb "terminated ok" true
    (match r.Bnb.stop_reason with
    | Bnb.Proved_optimal | Bnb.Gap_reached -> true
    | _ -> false)

let test_bnb_exhaustive_agreement () =
  (* Against brute force on many random targets. *)
  let rng = Stats.Rng.create 99 in
  for _ = 1 to 50 do
    let target = Stats.Rng.uniform rng ~lo:(-20.0) ~hi:20.0 in
    let r = Bnb.minimize (integer_quadratic_oracle target) (-25, 25) in
    let brute = Float.round target in
    let brute = Float.max (-25.0) (Float.min 25.0 brute) in
    match r.Bnb.best with
    | Some (x, _) ->
        checkb
          (Printf.sprintf "agrees with brute force (target %g)" target)
          true
          (Float.abs (float_of_int x -. brute) <= 1.0
          && (float_of_int x -. target) ** 2.0
             <= ((brute -. target) ** 2.0) +. 1e-9)
    | None -> Alcotest.fail "no solution"
  done

let test_bnb_node_budget () =
  (* A deliberately weak bound (always 0 on non-atomic regions) so the
     search cannot prune and must hit the node budget. *)
  let weak_oracle =
    {
      Bnb.bound =
        (fun (lo, hi) ->
          if lo > hi then None
          else if lo = hi then
            let c = (float_of_int lo -. 0.4) ** 2.0 in
            Some { Bnb.lower = c; candidate = Some (lo, c) }
          else
            Some
              { Bnb.lower = 0.0;
                candidate = Some (hi, (float_of_int hi -. 0.4) ** 2.0) });
      branch =
        (fun (lo, hi) ->
          if lo >= hi then []
          else
            let mid = (lo + hi) asr 1 in
            [ (lo, mid); (mid + 1, hi) ]);
    }
  in
  let params =
    { Bnb.default_params with max_nodes = 3; rel_gap = 0.0; abs_gap = 0.0 }
  in
  let r = Bnb.minimize ~params weak_oracle (-1000, 1000) in
  checkb "stopped on budget" true (r.Bnb.stop_reason = Bnb.Node_budget);
  checkb "still has incumbent" true (r.Bnb.best <> None);
  checkb "bound <= incumbent" true
    (match r.Bnb.best with
    | Some (_, c) -> r.Bnb.bound <= c +. 1e-12
    | None -> false);
  checkb "children counted" true (r.Bnb.stats.Bnb.children_generated > 0)

let test_bnb_infeasible_root () =
  let oracle =
    { Bnb.bound = (fun _ -> None); branch = (fun _ -> []) }
  in
  let r = Bnb.minimize oracle () in
  checkb "no solution" true (r.Bnb.best = None);
  checkb "proved" true (r.Bnb.stop_reason = Bnb.Proved_optimal)

let test_bnb_pruning_respects_incumbent () =
  (* A bound oracle that counts calls: once the exact optimum is the
     incumbent, sibling regions with worse bounds must not be explored. *)
  let calls = ref 0 in
  let oracle =
    {
      Bnb.bound =
        (fun (lo, hi) ->
          incr calls;
          if lo > hi then None
          else
            (* cost = x; lower bound = lo; candidate = lo *)
            Some { Bnb.lower = float_of_int lo;
                   candidate = Some (lo, float_of_int lo) });
      branch =
        (fun (lo, hi) ->
          if lo >= hi then []
          else
            let mid = (lo + hi) asr 1 in
            [ (lo, mid); (mid + 1, hi) ]);
    }
  in
  let r = Bnb.minimize oracle (0, 1 lsl 16) in
  (match r.Bnb.best with
  | Some (x, _) -> checki "found 0" 0 x
  | None -> Alcotest.fail "no solution");
  checkb "explored few nodes" true (!calls < 50)

let test_bnb_wall_clock_time_limit () =
  (* The bound oracle sleeps, burning wall time but almost no CPU time:
     [time_limit] must trip on the wall clock.  With the old [Sys.time]
     measurement the clock barely advanced during the sleeps and this
     search ran all the way to its node budget. *)
  let oracle =
    {
      Bnb.bound =
        (fun _ ->
          Unix.sleepf 0.02;
          Some { Bnb.lower = 0.0; candidate = Some ((), 1.0) });
      branch = (fun depth -> [ depth + 1 ]);
    }
  in
  let params =
    {
      Bnb.default_params with
      max_nodes = 25;
      rel_gap = 0.0;
      abs_gap = 0.0;
      time_limit = Some 0.05;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Bnb.minimize ~params oracle 0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "stopped on the wall clock" true
    (r.Bnb.stop_reason = Bnb.Time_budget);
  checkb "stopped promptly" true (elapsed < 0.45)

let test_bnb_parallel_matches_sequential () =
  let seq = Bnb.minimize (integer_quadratic_oracle 7.3) (-100, 100) in
  let seq_cost =
    match seq.Bnb.best with Some (_, c) -> c | None -> Float.nan
  in
  List.iter
    (fun domains ->
      let r =
        Bnb.minimize
          ~params:{ Bnb.default_params with domains }
          (integer_quadratic_oracle 7.3) (-100, 100)
      in
      (match r.Bnb.best with
      | Some (x, c) ->
          checki (Printf.sprintf "optimum on %d domains" domains) 7 x;
          checkf 1e-12 (Printf.sprintf "cost on %d domains" domains) seq_cost c
      | None -> Alcotest.fail "no solution");
      checki "domains_used" domains r.Bnb.stats.Bnb.domains_used;
      checkb "terminated ok" true
        (match r.Bnb.stop_reason with
        | Bnb.Proved_optimal | Bnb.Gap_reached -> true
        | _ -> false))
    [ 2; 4 ]

let test_bnb_domains_one_identity () =
  (* A domains = 1 search is deterministic: two runs agree on the result
     and on every statistic that is not a wall-clock timing. *)
  let run () = Bnb.minimize (integer_quadratic_oracle 3.7) (-50, 50) in
  let a = run () and b = run () in
  checkb "same best" true (a.Bnb.best = b.Bnb.best);
  checki "same nodes" a.Bnb.nodes_explored b.Bnb.nodes_explored;
  checkb "same stop reason" true (a.Bnb.stop_reason = b.Bnb.stop_reason);
  checkf 0.0 "same bound" a.Bnb.bound b.Bnb.bound;
  let scrub s =
    {
      s with
      Bnb.oracle_seconds = 0.0;
      domain_oracle_seconds = [||];
      wall_seconds = 0.0;
      domain_first_node_seconds = [||];
      seed_seconds = 0.0;
    }
  in
  checkb "same stats" true (scrub a.Bnb.stats = scrub b.Bnb.stats);
  (* Pinned figures of the single-threaded best-first order (Algorithm
     1): a driver change that reorders or re-counts the d = 1 search
     fails here. *)
  checkb "pinned best" true (a.Bnb.best = Some (4, (4.0 -. 3.7) ** 2.0));
  checki "pinned nodes" 7 a.Bnb.nodes_explored;
  checkb "pinned stop reason" true (a.Bnb.stop_reason = Bnb.Proved_optimal);
  let s = a.Bnb.stats in
  checki "pinned bound_pruned" 8 s.Bnb.bound_pruned;
  checki "pinned children_generated" 14 s.Bnb.children_generated;
  checki "pinned incumbent_updates" 1 s.Bnb.incumbent_updates;
  checki "pinned stale_pops" 0 s.Bnb.stale_pops;
  checki "pinned infeasible_regions" 0 s.Bnb.infeasible_regions

let test_bnb_one_worker_accounting () =
  (* domains = 1 is the work-stealing driver with a single worker: it
     never seeds, steals or parks, reports one per-domain slot, and
     emits exactly one bnb.node span per explored node. *)
  let c = Obs.Trace.create () in
  Obs.Trace.install c;
  let r =
    Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
        Bnb.minimize (integer_quadratic_oracle 7.3) (-1000, 1000))
  in
  let s = r.Bnb.stats in
  checkb "explored nodes" true (r.Bnb.nodes_explored > 0);
  checki "domains_used" 1 s.Bnb.domains_used;
  checki "seed_nodes" 0 s.Bnb.seed_nodes;
  checki "steals" 0 s.Bnb.steals;
  checki "stolen_nodes" 0 s.Bnb.stolen_nodes;
  checki "idle_wakeups" 0 s.Bnb.idle_wakeups;
  checki "first-node slots" 1 (Array.length s.Bnb.domain_first_node_seconds);
  let node_spans =
    List.length
      (List.filter
         (fun e -> e.Obs.Trace.name = "bnb.node")
         (Obs.Trace.events c))
  in
  checki "one bnb.node span per node" r.Bnb.nodes_explored node_spans

let test_pqueue_drain () =
  let q = Pqueue.create () in
  List.iter
    (fun k -> Pqueue.push q k (int_of_float k))
    [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let seen = ref [] in
  Pqueue.drain q (fun rank k v -> seen := (rank, k, v) :: !seen);
  Alcotest.(check (list (triple int (float 0.0) int)))
    "ascending key order with dense ranks"
    [ (0, 1.0, 1); (1, 2.0, 2); (2, 3.0, 3); (3, 4.0, 4); (4, 5.0, 5) ]
    (List.rev !seen);
  checkb "empty after drain" true (Pqueue.is_empty q);
  Pqueue.drain q (fun _ _ _ -> Alcotest.fail "drain of empty heap called f")

(* ------------------------------------------------------------------ *)
(* Work_deque                                                          *)
(* ------------------------------------------------------------------ *)

(* Shard ownership in the scheduler is a calling convention, not thread
   identity, so one thread can play every worker role in turn and
   exercise the whole protocol deterministically. *)

let test_work_deque_basic () =
  let d = Work_deque.create ~workers:2 () in
  checki "workers" 2 (Work_deque.workers d);
  checkb "fresh deque is drained" true (Work_deque.drained d);
  checkf 1e-12 "empty frontier bound" Float.infinity
    (Work_deque.frontier_bound d);
  Work_deque.push d ~worker:0 3.0 "b";
  Work_deque.push d ~worker:0 1.0 "a";
  checki "live counts queued work" 2 (Work_deque.live d);
  checkf 1e-12 "frontier bound is the min key" 1.0
    (Work_deque.frontier_bound d);
  (match Work_deque.take d ~worker:0 with
  | Some (k, v) ->
      checkf 1e-12 "takes the best key" 1.0 k;
      Alcotest.(check string) "takes the best value" "a" v
  | None -> Alcotest.fail "expected work");
  checki "in-flight work is still live" 2 (Work_deque.live d);
  checkf 1e-12 "bound covers the in-flight node" 1.0
    (Work_deque.frontier_bound d);
  Work_deque.release d ~worker:0;
  checki "release retires one node" 1 (Work_deque.live d);
  (* Mirror publication is batched: after a release the bound mirror may
     lag (stale low — conservative), and [sync_mirrors] makes it exact. *)
  checkb "stale mirror stays conservative" true
    (Work_deque.frontier_bound d <= 3.0);
  Work_deque.sync_mirrors d;
  checkf 1e-12 "bound exact after sync" 3.0 (Work_deque.frontier_bound d);
  checkb "invalid worker count rejected" true
    (match Work_deque.create ~workers:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_work_deque_steal_ordering () =
  let d = Work_deque.create ~workers:2 () in
  List.iter
    (fun k -> Work_deque.push d ~worker:0 k (int_of_float k))
    [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  (match Work_deque.try_steal d ~thief:1 with
  | Some (k, _) -> checkf 1e-12 "thief gets the global minimum" 1.0 k
  | None -> Alcotest.fail "steal should find worker 0's shard");
  checki "one steal recorded" 1 (Work_deque.steals d);
  checki "ceil(5/2) nodes moved" 3 (Work_deque.stolen_nodes d);
  checki "nothing lost in transit" 5 (Work_deque.live d);
  Work_deque.release d ~worker:1;
  let drain worker =
    let rec go acc =
      match Work_deque.take d ~worker with
      | Some (k, _) ->
          Work_deque.release d ~worker;
          go (k :: acc)
      | None -> List.rev acc
    in
    go []
  in
  Alcotest.(check (list (float 0.0)))
    "surplus of the stolen half queued on the thief" [ 2.0; 3.0 ] (drain 1);
  Alcotest.(check (list (float 0.0)))
    "victim kept the larger half" [ 4.0; 5.0 ] (drain 0);
  checkb "exhausted after the drain" true (Work_deque.drained d);
  checkb "nothing left to steal" true (Work_deque.try_steal d ~thief:1 = None)

let test_work_deque_mirror_conservative () =
  (* Batched mirror publication must never report a frontier bound
     tighter (greater) than the true minimum over live work: drive an
     adversarial push/take/steal/release mix against a shadow model of
     the live key multiset and check the one-sided staleness invariant
     after every operation, then exactness after [sync_mirrors] at
     quiescence. *)
  let d = Work_deque.create ~workers:2 () in
  let busy = [| None; None |] in
  let live = ref [] in
  let remove_one k l =
    let rec go acc = function
      | [] -> List.rev acc
      | x :: tl -> if x = k then List.rev_append acc tl else go (x :: acc) tl
    in
    go [] l
  in
  let true_min () = List.fold_left Float.min Float.infinity !live in
  (* Deterministic LCG so a failure reproduces. *)
  let state = ref 12345 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int (!state mod 1000) /. 10.0
  in
  for i = 0 to 499 do
    let w = i land 1 in
    (match i mod 5 with
    | 0 | 1 ->
        let k = rand () in
        Work_deque.push d ~worker:w k ();
        live := k :: !live
    | 2 -> (
        if busy.(w) = None then
          match Work_deque.take d ~worker:w with
          | Some (k, ()) -> busy.(w) <- Some k
          | None -> ())
    | 3 -> (
        if busy.(w) = None then
          match Work_deque.try_steal d ~thief:w with
          | Some (k, ()) -> busy.(w) <- Some k
          | None -> ())
    | _ -> (
        match busy.(w) with
        | Some k ->
            Work_deque.release d ~worker:w;
            live := remove_one k !live;
            busy.(w) <- None
        | None -> ()));
    if not (Work_deque.frontier_bound d <= true_min ()) then
      Alcotest.failf "mirror overshot at step %d: bound %g > true min %g" i
        (Work_deque.frontier_bound d)
        (true_min ())
  done;
  Array.iteri
    (fun w b ->
      match b with
      | Some k ->
          Work_deque.release d ~worker:w;
          live := remove_one k !live;
          busy.(w) <- None
      | None -> ())
    busy;
  Work_deque.sync_mirrors d;
  checkf 1e-12 "exact after sync at quiescence" (true_min ())
    (Work_deque.frontier_bound d);
  checki "shadow and deque agree on live count" (List.length !live)
    (Work_deque.live d)

let test_work_deque_last_node_stolen () =
  (* The termination race the live count exists for: worker 1 steals
     worker 0's only node, so every shard heap is empty while the search
     space is not exhausted.  Declaring the drain here would abandon the
     stolen node's whole subtree. *)
  let d = Work_deque.create ~workers:2 () in
  Work_deque.push d ~worker:0 1.0 ();
  (match Work_deque.try_steal d ~thief:1 with
  | Some (k, ()) -> checkf 1e-12 "stole the last node" 1.0 k
  | None -> Alcotest.fail "expected to steal the only node");
  checkb "owner's shard is empty" true (Work_deque.take d ~worker:0 = None);
  checkb "not drained: the node is in flight on the thief" false
    (Work_deque.drained d);
  checki "snapshot still sees the in-flight node" 1
    (List.length (Work_deque.snapshot d));
  (* The thief expands it: the child must be pushed before the parent is
     released, so live never dips to zero mid-expansion. *)
  Work_deque.push d ~worker:1 2.0 ();
  Work_deque.release d ~worker:1;
  checkb "child keeps the search alive" false (Work_deque.drained d);
  (match Work_deque.take d ~worker:1 with
  | Some (k, ()) -> checkf 1e-12 "child is takeable" 2.0 k
  | None -> Alcotest.fail "child should be queued on the thief");
  Work_deque.release d ~worker:1;
  checkb "drained once the leaf retires" true (Work_deque.drained d);
  checkb "park reports the drain instead of blocking" true
    (Work_deque.park d ~worker:0 = `Drained);
  Work_deque.close d;
  checkb "park after close" true (Work_deque.park d ~worker:0 = `Closed);
  checkb "closed flag" true (Work_deque.is_closed d)

(* Watchdog: run the search on a helper domain and poll, so a
   termination bug fails the test instead of hanging the suite (same
   scheme as test_fault.ml). *)
let bnb_with_timeout ~seconds f =
  let result = Atomic.make None in
  let _watched : unit Domain.t =
    Domain.spawn (fun () -> Atomic.set result (Some (f ())))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get result with
    | Some r -> Some r
    | None ->
        if Unix.gettimeofday () -. t0 > seconds then None
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
  in
  wait ()

let test_bnb_chain_termination () =
  (* A degenerate tree with exactly one live node at every instant: a
     chain of single-child nodes.  Four workers fight over that node —
     maximal park/steal/drain churn — and the search must still
     terminate with the deepest node as incumbent.  This is the stress
     test for the last-node-stolen-mid-drain race at the driver level. *)
  let depth = 2000 in
  let fdepth = float_of_int depth in
  let oracle =
    {
      Bnb.bound =
        (fun d ->
          let fd = float_of_int d /. fdepth in
          Some { Bnb.lower = fd; candidate = Some (d, 2.0 -. fd) });
      branch = (fun d -> if d < depth then [ d + 1 ] else []);
    }
  in
  let params =
    {
      Bnb.default_params with
      max_nodes = 10 * depth;
      rel_gap = 0.0;
      abs_gap = 0.0;
      domains = 4;
    }
  in
  match
    bnb_with_timeout ~seconds:60.0 (fun () -> Bnb.minimize ~params oracle 0)
  with
  | None -> Alcotest.fail "parallel chain search hung (termination bug)"
  | Some r ->
      checkb "terminated by proof, not budget" true
        (match r.Bnb.stop_reason with
        | Bnb.Proved_optimal | Bnb.Gap_reached -> true
        | _ -> false);
      (match r.Bnb.best with
      | Some (d, c) ->
          checki "deepest node wins" depth d;
          checkf 1e-12 "its cost" 1.0 c
      | None -> Alcotest.fail "no incumbent")

let test_bnb_seed_checkpoint_resume () =
  (* A checkpoint written during the seed phase (cadence 1, node budget
     small enough to trip before seeding finishes growing the frontier)
     must resume to the same optimum as an uninterrupted run. *)
  let target = 7.3 in
  let path = Filename.temp_file "ldafp_seed" ".ck" in
  let exact = { Bnb.default_params with rel_gap = 0.0; abs_gap = 0.0 } in
  let full =
    Bnb.minimize ~params:exact (integer_quadratic_oracle target) (-100, 100)
  in
  let params = { exact with Bnb.domains = 4; seed_factor = 8; max_nodes = 2 } in
  let ck = Bnb.checkpointing ~every_nodes:1 ~fingerprint:"seed-ck" path in
  let sliced =
    Bnb.minimize ~params ~checkpointing:ck (integer_quadratic_oracle target)
      (-100, 100)
  in
  checkb "budget tripped inside the seed phase" true
    (sliced.Bnb.stop_reason = Bnb.Node_budget
    && sliced.Bnb.stats.Bnb.seed_nodes >= 1
    && sliced.Bnb.stats.Bnb.seed_nodes = sliced.Bnb.nodes_explored);
  let state =
    (Checkpoint.load ~expect_fingerprint:"seed-ck" ~path ()
      : (int * int, int) Checkpoint.state)
  in
  let resumed =
    Bnb.resume
      ~params:{ params with Bnb.max_nodes = exact.Bnb.max_nodes }
      ~checkpointing:ck
      (integer_quadratic_oracle target)
      state
  in
  Sys.remove path;
  checkb "resumed run completes" true
    (match resumed.Bnb.stop_reason with
    | Bnb.Proved_optimal | Bnb.Gap_reached -> true
    | _ -> false);
  (match (full.Bnb.best, resumed.Bnb.best) with
  | Some (_, cf), Some (_, cr) ->
      checkf 0.0 "resumed run reaches the uninterrupted optimum" cf cr
  | _ -> Alcotest.fail "expected incumbents on both runs");
  checkb "seed accounting is cumulative across the chain" true
    (resumed.Bnb.stats.Bnb.seed_nodes >= sliced.Bnb.stats.Bnb.seed_nodes)

let prop_bnb_parallel_incumbent =
  QCheck.Test.make ~name:"parallel B&B matches sequential incumbent"
    ~count:25
    QCheck.(pair (float_range (-20.0) 20.0) (int_range 2 4))
    (fun (target, domains) ->
      let seq = Bnb.minimize (integer_quadratic_oracle target) (-25, 25) in
      let par =
        Bnb.minimize
          ~params:{ Bnb.default_params with domains }
          (integer_quadratic_oracle target) (-25, 25)
      in
      let ok_stop r =
        match r.Bnb.stop_reason with
        | Bnb.Proved_optimal | Bnb.Gap_reached -> true
        | _ -> false
      in
      match (seq.Bnb.best, par.Bnb.best) with
      | Some (_, cs), Some (_, cp) ->
          ok_stop seq && ok_stop par
          && Float.abs (cs -. cp) <= 1e-9 *. (1.0 +. Float.abs cs)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Gradcheck on the barrier calculus                                   *)
(* ------------------------------------------------------------------ *)

let test_socp_barrier_derivatives () =
  (* The hand-derived gradient/Hessian of the log-barrier (half-spaces +
     second-order cones) against finite differences, via the centering
     oracle at tau = 1. This is the calculus every Newton step relies
     on. *)
  let rng = Stats.Rng.create 77 in
  let n = 3 in
  let p =
    let b = Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
    Mat.add_scaled_identity 1.0 (Mat.mul b (Mat.transpose b))
  in
  let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let lins = Socp.box_constraints (Vec.make n (-2.0)) (Vec.make n 2.0) in
  let cone =
    {
      Socp.l = Mat.init 2 n (fun i j -> if i = j then 0.5 else 0.1);
      g = [| 0.05; -0.05 |];
      c = Vec.make n 0.2;
      d = 1.5;
    }
  in
  let problem = Socp.problem ~p ~q ~lins ~socs:[ cone ] n in
  (* Probe the centering objective through a tiny wrapper solve: we use
     find_strictly_feasible's interior point as the test point. *)
  match Socp.find_strictly_feasible problem ~start:(Vec.zeros n) with
  | Socp.Strictly_feasible x0 | Socp.Unknown x0 -> (
      let oracle = Socp.centering_oracle_for_tests problem 1.0 in
      match Gradcheck.check_oracle oracle x0 with
      | None -> Alcotest.fail "interior point rejected by the oracle"
      | Some r ->
          checkb
            (Printf.sprintf "barrier gradient matches FD (err %.2e)"
               r.Gradcheck.max_grad_error)
            true
            (r.Gradcheck.max_grad_error < 1e-5);
          checkb
            (Printf.sprintf "barrier hessian matches FD (err %.2e)"
               r.Gradcheck.max_hess_error)
            true
            (r.Gradcheck.max_hess_error < 1e-4))
  | Socp.Infeasible _ -> Alcotest.fail "toy problem is feasible"

(* ------------------------------------------------------------------ *)
(* Admm_qp                                                             *)
(* ------------------------------------------------------------------ *)

let test_admm_unconstrained_like () =
  (* min (x-3)² with -10 <= x <= 10: optimum interior at 3. *)
  let pb =
    Admm_qp.box_problem
      ~p:(Mat.scale 2.0 (Mat.identity 1))
      ~q:[| -6.0 |] ~lo:[| -10.0 |] ~hi:[| 10.0 |] ()
  in
  let s = Admm_qp.solve pb in
  checkb "solved" true (s.Admm_qp.status = Admm_qp.Solved);
  checkf 1e-5 "interior optimum" 3.0 s.Admm_qp.x.(0)

let test_admm_active_bound () =
  (* min (x-3)² with x <= 1: bound active. *)
  let pb =
    Admm_qp.box_problem
      ~p:(Mat.scale 2.0 (Mat.identity 1))
      ~q:[| -6.0 |] ~lo:[| -1.0 |] ~hi:[| 1.0 |] ()
  in
  let s = Admm_qp.solve pb in
  checkf 1e-5 "clipped optimum" 1.0 s.Admm_qp.x.(0)

let test_admm_general_constraints () =
  (* min x² + y² s.t. x + y >= 2: optimum (1,1). *)
  let pb =
    Admm_qp.problem
      ~p:(Mat.scale 2.0 (Mat.identity 2))
      ~a:[| [| 1.0; 1.0 |] |]
      ~l:[| 2.0 |] ~u:[| Float.infinity |] ()
  in
  let s = Admm_qp.solve pb in
  checkf 1e-4 "x" 1.0 s.Admm_qp.x.(0);
  checkf 1e-4 "y" 1.0 s.Admm_qp.x.(1)

let test_admm_validation () =
  checkb "l > u rejected" true
    (match
       Admm_qp.box_problem ~lo:[| 1.0 |] ~hi:[| 0.0 |] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Cross-validation of the two independent convex solvers on random
   box QPs: the barrier method and ADMM must agree. *)
let prop_admm_agrees_with_barrier =
  QCheck.Test.make ~name:"ADMM and barrier agree on random box QPs"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let base =
        Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let p =
        Mat.add_scaled_identity (0.5 *. float_of_int n)
          (Mat.mul base (Mat.transpose base))
      in
      let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let admm = Admm_qp.solve (Admm_qp.box_problem ~p ~q ~lo ~hi ()) in
      let socp =
        Socp.solve
          (Socp.problem ~p ~q ~lins:(Socp.box_constraints lo hi) n)
          ~start:(Vec.zeros n)
      in
      Float.abs (admm.Admm_qp.objective -. socp.Socp.objective)
      <= 1e-4 *. (1.0 +. Float.abs socp.Socp.objective))

(* Warm-started barrier solves (schedule advance from a near-optimal
   start) must return the same certified answer as a cold solve: random
   box QPs with a cone, solved cold from scratch and then warm from the
   cold optimum with [warm_start_params]. *)
let prop_warm_start_agrees_with_cold =
  QCheck.Test.make ~name:"warm-started barrier agrees with cold solve"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let base =
        Mat.init n n (fun _ _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      let p =
        Mat.add_scaled_identity (0.5 *. float_of_int n)
          (Mat.mul base (Mat.transpose base))
      in
      let q = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let radius = Stats.Rng.uniform rng ~lo:1.0 ~hi:4.0 in
      let cone =
        { Socp.l = Mat.identity n; g = Vec.zeros n; c = Vec.zeros n;
          d = radius }
      in
      let pb =
        Socp.problem ~p ~q ~lins:(Socp.box_constraints lo hi) ~socs:[ cone ] n
      in
      match Socp.solve_auto pb ~start:(Vec.zeros n) with
      | None -> false (* origin is always feasible here *)
      | Some cold ->
          QCheck.assume (Socp.is_strictly_interior pb cold.Socp.x);
          let warm =
            Socp.solve
              ~params:(Socp.warm_start_params Socp.default_params)
              pb ~start:cold.Socp.x
          in
          Socp.is_feasible ~tol:1e-7 pb warm.Socp.x
          && Float.abs (warm.Socp.objective -. cold.Socp.objective)
             <= cold.Socp.gap_bound +. warm.Socp.gap_bound
                +. (1e-7 *. (1.0 +. Float.abs cold.Socp.objective)))

let test_warm_start_params () =
  let p = Socp.default_params in
  let w = Socp.warm_start_params p in
  checkf 1e-9 "tau0 advanced 5 levels" (p.Socp.tau0 *. (p.Socp.mu ** 5.0))
    w.Socp.tau0;
  let w2 = Socp.warm_start_params ~levels:2 p in
  checkf 1e-9 "custom levels" (p.Socp.tau0 *. (p.Socp.mu ** 2.0)) w2.Socp.tau0;
  checkf 1e-12 "gap_tol unchanged" p.Socp.gap_tol w2.Socp.gap_tol

(* A shared 3-variable test problem: coupled quadratic, unit box, and a
   ball of radius 2 around the origin. *)
let restrict_test_problem () =
  let p =
    [| [| 2.0; 1.0; 0.0 |]; [| 1.0; 2.0; 0.0 |]; [| 0.0; 0.0; 2.0 |] |]
  in
  let q = [| -1.0; 0.5; -2.0 |] in
  let lins = Socp.box_constraints (Vec.make 3 (-1.0)) (Vec.make 3 1.0) in
  let ball =
    { Socp.l = Mat.identity 3; g = Vec.zeros 3; c = Vec.zeros 3; d = 2.0 }
  in
  Socp.problem ~p ~q ~lins ~socs:[ ball ] 3

let test_socp_restrict_substitution () =
  let pb = restrict_test_problem () in
  let v = 0.25 in
  match Socp.restrict pb ~fixed:[| (1, v) |] with
  | None -> Alcotest.fail "restriction of an interior pin must exist"
  | Some r ->
      checki "full dimension" 3 r.Socp.full_n;
      checki "reduced dimension" 2 r.Socp.reduced.Socp.n;
      checkb "free indices" true (r.Socp.free = [| 0; 2 |]);
      (* The substitution is exact: the reduced objective plus the frozen
         offset equals the full objective at the embedded point, for any
         reduced point. *)
      let rng = Stats.Rng.create 5 in
      for _ = 1 to 25 do
        let y = Vec.init 2 (fun _ -> Stats.Rng.uniform rng ~lo:(-3.0) ~hi:3.0) in
        let x = Socp.restriction_embed r y in
        checkf 1e-12 "pinned coordinate embedded" v x.(1);
        checkb "project . embed = id" true (Socp.restriction_project r x = y);
        checkf 1e-10 "objective identity"
          (Socp.objective_value pb x)
          (Socp.objective_value r.Socp.reduced y
          +. Socp.restriction_objective_const r)
      done;
      (* The reduced problem has a usable strict interior and its optimum
         embeds to a full-space feasible point on the pinned slice. *)
      let sol =
        match Socp.solve_auto r.Socp.reduced ~start:(Vec.zeros 2) with
        | Some s -> s
        | None -> Alcotest.fail "reduced problem should be solvable"
      in
      let x = Socp.restriction_embed r sol.Socp.x in
      checkb "embedded optimum feasible" true
        (Socp.is_feasible ~tol:1e-7 pb x);
      checkf 1e-12 "embedded optimum stays pinned" v x.(1)

let test_socp_restrict_validation () =
  let pb = restrict_test_problem () in
  (* A pin outside the box contradicts the box half-spaces: the slice is
     empty and restrict certifies it. *)
  checkb "infeasible pin detected" true
    (Socp.restrict pb ~fixed:[| (1, 5.0) |] = None);
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  checkb "empty fixed rejected" true (raises (fun () ->
      Socp.restrict pb ~fixed:[||]));
  checkb "all-fixed rejected" true (raises (fun () ->
      Socp.restrict pb ~fixed:[| (0, 0.0); (1, 0.0); (2, 0.0) |]));
  checkb "out-of-range index rejected" true (raises (fun () ->
      Socp.restrict pb ~fixed:[| (3, 0.0) |]))

let test_socp_correct_to_interior () =
  (* A point exactly on a box face has zero slack — the pull-free repair
     of last resort must move it strictly inside. *)
  let lins = Socp.box_constraints (Vec.zeros 2) (Vec.make 2 1.0) in
  let pb = Socp.problem ~p:(Mat.identity 2) ~lins 2 in
  let x = [| 1.0; 0.5 |] in
  checkb "starts on the boundary" false (Socp.is_strictly_interior pb x);
  match Socp.correct_to_interior pb x with
  | None -> Alcotest.fail "one Newton step should repair a boundary point"
  | Some y ->
      checkb "corrected point strictly interior" true
        (Socp.min_relative_slack pb y > 0.0)

(* The tentpole property: pulling a clipped parent optimum toward a
   strictly interior target always lands certifiably inside — on random
   box-and-ball problems with the start pushed onto a random box face,
   exactly how branch-cut clipping places inherited points. *)
let prop_pull_in_strictly_interior =
  QCheck.Test.make ~name:"pull-in always lands strictly interior"
    ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let lo = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:(-0.1)) in
      let hi = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:0.1 ~hi:2.0) in
      let radius = Stats.Rng.uniform rng ~lo:1.0 ~hi:4.0 in
      let cone =
        { Socp.l = Mat.identity n; g = Vec.zeros n; c = Vec.zeros n;
          d = radius }
      in
      let pb = Socp.problem ~lins:(Socp.box_constraints lo hi) ~socs:[ cone ] n in
      let x0 =
        Array.init n (fun i -> Stats.Rng.uniform rng ~lo:lo.(i) ~hi:hi.(i))
      in
      let j = Stats.Rng.int rng n in
      x0.(j) <- (if Stats.Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.5 then lo.(j)
                 else hi.(j));
      (* The origin is strictly interior by construction (box spans it,
         ball slack = radius >= 1), so the pull-in must succeed... *)
      match Socp.pull_to_interior pb ~target:(Vec.zeros n) x0 with
      | None -> QCheck.Test.fail_report "pull-in failed with interior target"
      | Some y ->
          (* ...and certifiably: strictly positive relative slack on
             every constraint, not just epsilon-feasibility. *)
          if Socp.min_relative_slack pb y <= 0.0 then
            QCheck.Test.fail_reportf "pulled point has slack %.3g"
              (Socp.min_relative_slack pb y)
          else begin
            match Socp.prepare_warm_start pb x0 ~target:(Vec.zeros n) with
            | None ->
                QCheck.Test.fail_report "prepare refused a repairable point"
            | Some (z, _) -> Socp.min_relative_slack pb z > 0.0
          end)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pqueue_sorted;
      prop_pqueue_filter_heap;
      prop_pqueue_steal_half;
      prop_cert_lower_bounds_reference;
      prop_cert_matches_reference;
      prop_admm_agrees_with_barrier;
      prop_warm_start_agrees_with_cold;
      prop_pull_in_strictly_interior;
      prop_bnb_parallel_incumbent;
    ]

let () =
  Alcotest.run "optim"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "sup/inf squared (eq 26-27)" `Quick
            test_interval_sup_inf_sq;
          Alcotest.test_case "split/intersect" `Quick
            test_interval_split_intersect;
          Alcotest.test_case "scale/shift" `Quick test_interval_scale_shift;
          Alcotest.test_case "directed rounding" `Quick
            test_interval_directed_rounding;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "filter" `Quick test_pqueue_filter;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "drop worst" `Quick test_pqueue_drop_worst;
          Alcotest.test_case "filter releases dropped values" `Quick
            test_pqueue_filter_releases_dropped;
          Alcotest.test_case "steal half" `Quick test_pqueue_steal_half;
          Alcotest.test_case "steal half edge cases" `Quick
            test_pqueue_steal_half_edges;
          Alcotest.test_case "drain by rank" `Quick test_pqueue_drain;
        ] );
      ( "work_deque",
        [
          Alcotest.test_case "push/take/release" `Quick test_work_deque_basic;
          Alcotest.test_case "steal-half ordering" `Quick
            test_work_deque_steal_ordering;
          Alcotest.test_case "batched mirrors stay conservative" `Quick
            test_work_deque_mirror_conservative;
          Alcotest.test_case "last node stolen mid-drain" `Quick
            test_work_deque_last_node_stolen;
        ] );
      ( "newton",
        [
          Alcotest.test_case "quadratic" `Quick test_newton_quadratic;
          Alcotest.test_case "log barrier 1d" `Quick
            test_newton_log_barrier_1d;
          Alcotest.test_case "infeasible start" `Quick
            test_newton_rejects_infeasible_start;
          Alcotest.test_case "NaN decrement diverges" `Quick
            test_newton_nan_decrement_is_diverged;
        ] );
      ( "socp",
        [
          Alcotest.test_case "box QP" `Quick test_socp_box_qp;
          Alcotest.test_case "unconstrained" `Quick test_socp_unconstrained;
          Alcotest.test_case "cone projection" `Quick
            test_socp_cone_projection;
          Alcotest.test_case "lower bound certificate" `Quick
            test_socp_lower_bound_certificate;
          Alcotest.test_case "dual certificate (analytic)" `Quick
            test_socp_certificate_analytic;
          Alcotest.test_case "dual certificate survives corrupt primal"
            `Quick test_socp_certificate_survives_corrupt_primal;
          Alcotest.test_case "rejects infeasible start" `Quick
            test_socp_rejects_infeasible_start;
          Alcotest.test_case "boundary start nudged" `Quick
            test_socp_boundary_start_nudged;
          Alcotest.test_case "phase1 feasible" `Quick
            test_phase1_finds_feasible;
          Alcotest.test_case "phase1 infeasible" `Quick
            test_phase1_detects_infeasible;
          Alcotest.test_case "solve_auto" `Quick test_solve_auto_pipeline;
          Alcotest.test_case "warm-start params" `Quick test_warm_start_params;
          Alcotest.test_case "restrict substitutes exactly" `Quick
            test_socp_restrict_substitution;
          Alcotest.test_case "restrict validation" `Quick
            test_socp_restrict_validation;
          Alcotest.test_case "Newton correction repairs boundary" `Quick
            test_socp_correct_to_interior;
          Alcotest.test_case "dimension checks" `Quick
            test_socp_dimension_checks;
        ] );
      ( "gradcheck",
        [
          Alcotest.test_case "SOC barrier derivatives" `Quick
            test_socp_barrier_derivatives;
        ] );
      ( "admm",
        [
          Alcotest.test_case "interior optimum" `Quick
            test_admm_unconstrained_like;
          Alcotest.test_case "active bound" `Quick test_admm_active_bound;
          Alcotest.test_case "general constraints" `Quick
            test_admm_general_constraints;
          Alcotest.test_case "validation" `Quick test_admm_validation;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "integer optimum" `Quick
            test_bnb_finds_integer_optimum;
          Alcotest.test_case "matches brute force" `Quick
            test_bnb_exhaustive_agreement;
          Alcotest.test_case "node budget" `Quick test_bnb_node_budget;
          Alcotest.test_case "infeasible root" `Quick test_bnb_infeasible_root;
          Alcotest.test_case "pruning" `Quick
            test_bnb_pruning_respects_incumbent;
          Alcotest.test_case "wall-clock time limit" `Quick
            test_bnb_wall_clock_time_limit;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_bnb_parallel_matches_sequential;
          Alcotest.test_case "domains=1 identity" `Quick
            test_bnb_domains_one_identity;
          Alcotest.test_case "single-chain termination on 4 domains" `Quick
            test_bnb_chain_termination;
          Alcotest.test_case "checkpoint mid-seed resumes" `Quick
            test_bnb_seed_checkpoint_resume;
          Alcotest.test_case "domains=1 one-worker accounting" `Quick
            test_bnb_one_worker_accounting;
        ] );
      ("properties", qcheck_tests);
    ]
