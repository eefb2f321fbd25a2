(* Timed calls into the oracle's public stages, replayed outside the
   search over a chain of distinct child relaxations of the workload's
   own problem (the construction of the bound-kernel experiment in
   bench/main.ml): each child splits the parent's t-range at the
   parent optimum's projection, clamped as the branching rule clamps
   it, so the inherited point lands on the child's branch cut and the
   warm start has to go through the same repair the search uses.

   Every stage is timed per call, in nanoseconds and minor words; a
   figure is the mean over the chain of each relaxation's median over
   [reps] repetitions. *)

open Ldafp_core

type stage = { us : float; words : float }

type t = {
  relax_build : stage;  (** [Ldafp_problem.relaxation] *)
  warm_prep : stage;  (** [Socp.prepare_warm_start] *)
  warm_solve : stage;  (** barrier solve from the repaired point *)
  cold_solve : stage;  (** [Socp.solve_auto]: phase I + barrier *)
  cert : stage;  (** [Socp.certify_lower_bound] *)
  warm_hits : int;
  chain : int;
  seed_incumbent_ms : float;  (** [Ldafp_heuristics.seed_incumbent] *)
  cholesky_us : float;  (** [Cholesky.factor] at the problem dimension *)
}

let fail fmt = Printf.ksprintf failwith ("replay: " ^^ fmt)

(* Median ns and words over [reps] calls of [f]; also the last result. *)
let timed ~reps f =
  let runs = Array.init reps (fun _ -> Measure.call f) in
  let r, _, _ = runs.(reps - 1) in
  ( r,
    Measure.median (Array.map (fun (_, ns, _) -> float_of_int ns) runs),
    Measure.median (Array.map (fun (_, _, w) -> w) runs) )

let stage_of samples =
  {
    us = Measure.mean (Array.of_list (List.map fst samples)) /. 1e3;
    words = Measure.mean (Array.of_list (List.map snd samples));
  }

(* The split point the branching rule would choose. *)
let child_trange ~left pb trange (parent : Optim.Socp.solution) =
  let lo = Optim.Interval.lo trange and hi = Optim.Interval.hi trange in
  let margin = 0.15 *. (hi -. lo) in
  let at =
    Float.max (lo +. margin)
      (Float.min (hi -. margin) (Ldafp_problem.t_of pb parent.Optim.Socp.x))
  in
  let l, r = Optim.Interval.split ~at trange in
  if left then l else r

let run ~chain ~reps ~(config : Lda_fp.config) pb =
  let params = config.Lda_fp.socp_params in
  let wbox = pb.Ldafp_problem.elem_box in
  let mid () = Array.map Fixedpoint.Fx_interval.mid wbox in
  let relax trange =
    Ldafp_problem.relaxation pb ~wbox ~trange
      ~eta:(Optim.Interval.sup_sq trange)
  in
  let root_trange = pb.Ldafp_problem.t_root in
  let root =
    match Optim.Socp.solve_auto ~params (relax root_trange) ~start:(mid ()) with
    | Some s -> s
    | None -> fail "root relaxation infeasible"
  in
  let build = ref [] and prep = ref [] and warm = ref [] in
  let cold = ref [] and cert = ref [] in
  let rec walk k trange (parent : Optim.Socp.solution) =
    if k < chain then begin
      let trange = child_trange ~left:(k mod 2 = 0) pb trange parent in
      let child, b_ns, b_w = timed ~reps (fun () -> relax trange) in
      build := (b_ns, b_w) :: !build;
      let target = Ldafp_problem.center_point pb ~wbox ~trange in
      let prepared, p_ns, p_w =
        timed ~reps (fun () ->
            Optim.Socp.prepare_warm_start ~params ~target child
              parent.Optim.Socp.x)
      in
      prep := (p_ns, p_w) :: !prep;
      let cold_sol, c_ns, c_w =
        timed ~reps (fun () ->
            Optim.Socp.solve_auto ~params child ~start:(mid ()))
      in
      cold := (c_ns, c_w) :: !cold;
      let warm_sol =
        match prepared with
        | None -> None
        | Some (x0, _) ->
            let levels =
              Optim.Socp.restart_levels params
                ~tau_final:parent.Optim.Socp.tau_final
            in
            let wp = Optim.Socp.warm_start_params ~levels params in
            let sol, ns, w =
              timed ~reps (fun () -> Optim.Socp.solve ~params:wp child ~start:x0)
            in
            warm := (ns, w) :: !warm;
            Some sol
      in
      (* Certify what the search certifies: the warm solution when the
         repair succeeded, the cold one otherwise. *)
      match (warm_sol, cold_sol) with
      | Some sol, _ | None, Some sol ->
          let ok, ns, w =
            timed ~reps (fun () ->
                Result.is_ok (Optim.Socp.certify_lower_bound child sol))
          in
          if not ok then fail "certificate failed on chain node %d" k;
          cert := (ns, w) :: !cert;
          walk (k + 1) trange sol
      | None, None -> ()
    end
  in
  walk 0 root_trange root;
  let _, seed_ns, _ =
    timed ~reps (fun () ->
        Ldafp_heuristics.seed_incumbent ~steps:config.Lda_fp.sweep_steps
          ~max_rounds:(max 4 config.Lda_fp.polish_rounds)
          pb)
  in
  (* Batches of calls lasting at least 1 ms each; median batch. *)
  let sw = pb.Ldafp_problem.sw in
  let time_batch n =
    let t0 = Measure.now_ns () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Linalg.Cholesky.factor sw))
    done;
    Measure.now_ns () - t0
  in
  let rec calibrate n =
    if n >= 1 lsl 20 || time_batch n >= 1_000_000 then n else calibrate (2 * n)
  in
  let batch = calibrate 1 in
  let chol =
    Array.init 15 (fun _ ->
        float_of_int (time_batch batch) /. float_of_int batch)
  in
  let zero = { us = 0.0; words = 0.0 } in
  let stage l = if l = [] then zero else stage_of l in
  {
    relax_build = stage !build;
    warm_prep = stage !prep;
    warm_solve = stage !warm;
    cold_solve = stage !cold;
    cert = stage !cert;
    warm_hits = List.length !warm;
    chain = List.length !build;
    seed_incumbent_ms = seed_ns /. 1e6;
    cholesky_us = Measure.median chol /. 1e3;
  }
