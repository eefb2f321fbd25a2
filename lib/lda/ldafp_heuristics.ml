open Linalg
open Fixedpoint

let round_into (pb : Ldafp_problem.t) ?wbox w =
  let wbox = match wbox with Some b -> b | None -> pb.Ldafp_problem.elem_box in
  Fx_interval.clamp_values wbox w

let evaluate pb w =
  let c = Ldafp_problem.feasible_cost pb w in
  if Float.is_nan c then None else Some (w, c)

let better a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (_, ca), Some (_, cb) -> if ca <= cb then a else b

let scaled_rounding_sweep ?(steps = 200) (pb : Ldafp_problem.t) direction =
  if steps < 1 then invalid_arg "scaled_rounding_sweep: steps < 1";
  let n = Vec.norm_inf direction in
  if n = 0.0 then None
  else begin
    let dir = Vec.scale (1.0 /. n) direction in
    let fmt = pb.Ldafp_problem.fmt in
    let lo = Qformat.ulp fmt in
    let hi = Qformat.max_value fmt in
    let ratio = (hi /. lo) ** (1.0 /. float_of_int (max 1 (steps - 1))) in
    let best = ref None in
    let lambda = ref lo in
    for _ = 1 to steps do
      let w = round_into pb (Vec.scale !lambda dir) in
      best := better !best (evaluate pb w);
      lambda := !lambda *. ratio
    done;
    !best
  end

let coordinate_polish ?(max_rounds = 6) (pb : Ldafp_problem.t) start =
  if Float.is_nan (Ldafp_problem.feasible_cost pb start) then
    invalid_arg "coordinate_polish: start point infeasible";
  let fmt = pb.Ldafp_problem.fmt in
  let ulp = Qformat.ulp fmt in
  let w = Vec.copy start in
  let cost = ref (Ldafp_problem.cost pb w) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for j = 0 to Vec.dim w - 1 do
      let original = w.(j) in
      (* Try +ulp, then -ulp if that did not move w_j.  A try that stays
         in the element interval is kept when it is feasible and lowers
         the cost (an infeasible one has NaN cost and never does). *)
      let tries = ref 0 in
      while !tries < 2 && (!tries = 0 || w.(j) = original) do
        let cand = original +. if !tries = 0 then ulp else -.ulp in
        incr tries;
        if Fx_interval.mem (Ldafp_problem.elem_interval pb j) cand then begin
          w.(j) <- cand;
          let c = Ldafp_problem.feasible_cost pb w in
          if c < !cost -. 1e-15 then begin
            cost := c;
            improved := true
          end
          else w.(j) <- original
        end
      done
    done
  done;
  (w, !cost)

let seed_incumbent ?steps ?max_rounds (pb : Ldafp_problem.t) =
  let model = Lda.train_scatter pb.Ldafp_problem.scatter in
  match scaled_rounding_sweep ?steps pb (Lda.weights model) with
  | None -> None
  | Some (w, _) -> Some (coordinate_polish ?max_rounds pb w)
