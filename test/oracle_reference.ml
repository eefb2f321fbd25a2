(* The barrier oracle as it was before cones carried their Gram matrix:
   the reference [Socp.centering_into] must match bit for bit (test_optim's
   "oracle matches the recomputing reference" property).  It sums
   (LᵀL)_ij = Σ_r L[r,i]·L[r,j] inside the Hessian loop on every call and
   allocates its results; everything else is the original code, with the
   per-domain scratch replaced by fresh arrays. *)

open Optim

(* [Vec.dot]'s order, without its dimension check. *)
let dot a b =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

(* (LᵀL)_ij summed the way the oracle used to, from +0.0 over the rows
   in order. *)
let gram_entry l i j =
  let ltl = ref 0.0 in
  for r = 0 to Array.length l - 1 do
    ltl := !ltl +. (l.(r).(i) *. l.(r).(j))
  done;
  !ltl

(* tau·f(x) + φ(x) with every offset loosened by [relax]: [Some (value,
   gradient, Hessian)], or [None] outside the barrier domain. *)
let centering ?(relax = 0.0) (pb : Socp.problem) tau x =
  let n = pb.Socp.n in
  let px = Array.make n 0.0 and v = Array.make n 0.0 in
  let grad = Array.make n 0.0 and hess = Array.make_matrix n n 0.0 in
  let s_obj = tau *. pb.Socp.obj_scale in
  for i = 0 to n - 1 do
    px.(i) <- dot pb.Socp.p.(i) x
  done;
  let fx = (0.5 *. dot x px) +. dot pb.Socp.q x in
  for i = 0 to n - 1 do
    grad.(i) <- s_obj *. (px.(i) +. pb.Socp.q.(i));
    let pi = pb.Socp.p.(i) and hi = hess.(i) in
    for j = 0 to n - 1 do
      hi.(j) <- s_obj *. pi.(j)
    done
  done;
  let f = ref (s_obj *. fx) in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < Array.length pb.Socp.lins do
    let { Socp.a; b } = pb.Socp.lins.(!k) in
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
  while !ok && !k < Array.length pb.Socp.socs do
    let { Socp.l; g; c; d; _ } = pb.Socp.socs.(!k) in
    incr k;
    let u = dot c x +. d +. relax in
    let rows_l = Array.length l in
    let v = if Array.length v < rows_l then Array.make rows_l 0.0 else v in
    let vv = ref 0.0 in
    for r = 0 to rows_l - 1 do
      let vr = dot l.(r) x +. g.(r) in
      v.(r) <- vr;
      vv := !vv +. (vr *. vr)
    done;
    let h = (u *. u) -. !vv in
    if u <= 0.0 || h <= 0.0 then ok := false
    else begin
      f := !f -. log h;
      let ltv = Array.make n 0.0 in
      for r = 0 to rows_l - 1 do
        let vr = v.(r) in
        if vr <> 0.0 then
          let lr = l.(r) in
          for j = 0 to n - 1 do
            ltv.(j) <- ltv.(j) +. (vr *. lr.(j))
          done
      done;
      let gh = Array.init n (fun i -> (2.0 *. u *. c.(i)) -. (2.0 *. ltv.(i))) in
      let inv_h = 1.0 /. h in
      for i = 0 to n - 1 do
        grad.(i) <- grad.(i) -. (gh.(i) *. inv_h)
      done;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let ltl = gram_entry l i j in
          hess.(i).(j) <-
            hess.(i).(j)
            +. (gh.(i) *. gh.(j) *. inv_h *. inv_h)
            -. (((2.0 *. c.(i) *. c.(j)) -. (2.0 *. ltl)) *. inv_h)
        done
      done
    end
  done;
  if !ok && not (Float.is_nan !f) then Some (!f, grad, hess) else None
