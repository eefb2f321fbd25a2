(* The dual certificate as first written, over boxed [Interval.t]
   values: the reference the library's unboxed
   [Socp.certify_lower_bound] must match bit for bit (test_optim's
   "certificate matches the interval reference" property).  It keeps
   the directed-rounding interval operations the library no longer
   needs.  The metrics calls are left out; everything else is the
   original code. *)

open Linalg
open Optim

(* ------------------------------------------------------------------ *)
(* Directed ("outward") rounding                                       *)
(* ------------------------------------------------------------------ *)

(* OCaml floats round to nearest, so the true real result of one IEEE
   +, −, × is strictly within one ulp of the computed value; stepping
   one representable float outward therefore encloses it.  [Float.pred
   infinity = max_float] would *shrink* an infinite endpoint, hence the
   guards. *)
let down x = if x = Float.neg_infinity then x else Float.pred x
let up x = if x = Float.infinity then x else Float.succ x

(* Step both endpoints one float outward. *)
let wide (t : Interval.t) =
  Interval.make ~lo:(down t.Interval.lo) ~hi:(up t.Interval.hi)

(* Rigorous enclosures: every operation widens its result by one
   representable float on each side.  An operation whose endpoint
   arithmetic produces NaN (e.g. [∞ − ∞]) raises [Invalid_argument]
   via [Interval.make]. *)
let wide_add (a : Interval.t) (b : Interval.t) =
  Interval.make
    ~lo:(down (a.Interval.lo +. b.Interval.lo))
    ~hi:(up (a.Interval.hi +. b.Interval.hi))

(* Exact negation (no widening needed: negation is exact in IEEE). *)
let neg (t : Interval.t) = Interval.make ~lo:(-.t.Interval.hi) ~hi:(-.t.Interval.lo)

let wide_sub a b = wide_add a (neg b)

(* Kahan convention: 0 · ±∞ = 0.  An exactly-zero factor contributes
   exactly zero to the product range even when the other interval is
   unbounded. *)
let prod x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let wide_mul (a : Interval.t) (b : Interval.t) =
  let p1 = prod a.Interval.lo b.Interval.lo
  and p2 = prod a.Interval.lo b.Interval.hi in
  let p3 = prod a.Interval.hi b.Interval.lo
  and p4 = prod a.Interval.hi b.Interval.hi in
  let lo = Float.min (Float.min p1 p2) (Float.min p3 p4) in
  let hi = Float.max (Float.max p1 p2) (Float.max p3 p4) in
  Interval.make ~lo:(down lo) ~hi:(up hi)

(* ------------------------------------------------------------------ *)
(* The certificate                                                     *)
(* ------------------------------------------------------------------ *)

let dir_up = up
let dir_down = down

(* ‖Lx + g‖² without materialising the residual vector. *)
let soc_vv { Socp.l; g; _ } x =
  let vv = ref 0.0 in
  for r = 0 to Mat.rows l - 1 do
    let vr = Vec.dot l.(r) x +. g.(r) in
    vv := !vv +. (vr *. vr)
  done;
  !vv

(* Upper bound on the Euclidean norm of a float vector: upward-rounded
   sum of upward-rounded squares, then an upward step over the
   correctly-rounded sqrt. *)
let norm2_up z =
  let s = Array.fold_left (fun acc zi -> dir_up (acc +. dir_up (zi *. zi))) 0.0 z in
  dir_up (sqrt s)

let certify_lower_bound ?(max_rel_slack = 0.1) (pb : Socp.problem)
    (sol : Socp.solution) =
  let fail reason = Error (Socp.Cert_repair_failed reason) in
  let x = sol.Socp.x in
  let tau = sol.Socp.tau_final in
  let n = pb.Socp.n in
  let s_obj = pb.Socp.obj_scale in
  let constrained =
    Array.length pb.Socp.lins > 0 || Array.length pb.Socp.socs > 0
  in
  if Vec.dim x <> n then fail "solution dimension mismatch"
  else if not (Array.for_all Float.is_finite x) then
    fail "non-finite primal iterate"
  else if not (Float.is_finite s_obj && s_obj > 0.0) then
    fail "objective scale not positive"
  else if constrained && not (Float.is_finite tau && tau > 0.0) then
    fail (Printf.sprintf "unusable terminal barrier weight %h" tau)
  else begin
    let repaired = ref false in
    (* Half-space multipliers, clipped to the nonnegative orthant. *)
    let lambda =
      Array.map
        (fun { Socp.a; b } ->
          let sl = b -. Vec.dot a x in
          let lam = 1.0 /. (tau *. sl) in
          if sl > 0.0 && Float.is_finite lam && lam > 0.0 then lam
          else begin
            repaired := true;
            0.0
          end)
        pb.lins
    in
    (* Cone multiplier pairs; [None] = pair zeroed by the repair. *)
    let cone_mult =
      Array.map
        (fun ({ Socp.l; g; c; d; _ } as soc) ->
          let u = Vec.dot c x +. d in
          let vv = soc_vv soc x in
          let h = (u *. u) -. vv in
          let w = 2.0 *. u /. (tau *. h) in
          if not (u > 0.0 && h > 0.0 && Float.is_finite w && w > 0.0) then begin
            repaired := true;
            None
          end
          else begin
            let rows = Mat.rows l in
            let z =
              Vec.init rows (fun r ->
                  2.0 *. (Vec.dot l.(r) x +. g.(r)) /. (tau *. h))
            in
            (* ‖z‖ ≤ w is part of dual feasibility, so the norm test must
               be rigorous: shrink z onto the cone (checking with the
               upward-rounded norm each time), zero the pair if a few
               shrinks do not land inside. *)
            let rec fit tries z =
              let nz = norm2_up z in
              if Float.is_finite nz && nz <= w then Some (w, z)
              else if tries = 0 then None
              else begin
                repaired := true;
                let scale = w /. nz *. (1.0 -. 1e-12) in
                if Float.is_finite scale && scale > 0.0 then
                  fit (tries - 1) (Vec.scale scale z)
                else None
              end
            in
            match fit 3 z with
            | Some wz -> Some wz
            | None ->
                repaired := true;
                None
          end)
        pb.socs
    in
    (* Everything from here on is a rigorous enclosure: outward-rounded
       interval ops over {!Interval}, NaN surfacing as Invalid_argument
       (caught below and reported as a certification failure, never as
       a bound). *)
    match
      let ip = Interval.point in
      (* r = s·q + Σ λᵢaᵢ + Σ (Lⱼᵀzⱼ − wⱼcⱼ) *)
      let r = Array.init n (fun i -> wide_mul (ip s_obj) (ip pb.q.(i))) in
      let kappa = ref (ip 0.0) in
      Array.iteri
        (fun k { Socp.a; b } ->
          let lam = lambda.(k) in
          if lam <> 0.0 then begin
            for i = 0 to n - 1 do
              if a.(i) <> 0.0 then
                r.(i) <-
                  wide_add r.(i) (wide_mul (ip lam) (ip a.(i)))
            done;
            kappa := wide_add !kappa (wide_mul (ip lam) (ip b))
          end)
        pb.lins;
      Array.iteri
        (fun k { Socp.l; g; c; d; _ } ->
          match cone_mult.(k) with
          | None -> ()
          | Some (w, z) ->
              let rows = Mat.rows l in
              for i = 0 to n - 1 do
                let acc = ref (wide_mul (neg (ip w)) (ip c.(i))) in
                for rr = 0 to rows - 1 do
                  if z.(rr) <> 0.0 && l.(rr).(i) <> 0.0 then
                    acc :=
                      wide_add !acc
                        (wide_mul (ip z.(rr)) (ip l.(rr).(i)))
                done;
                r.(i) <- wide_add r.(i) !acc
              done;
              kappa := wide_add !kappa (wide_mul (ip w) (ip d));
              for rr = 0 to rows - 1 do
                if z.(rr) <> 0.0 && g.(rr) <> 0.0 then
                  kappa :=
                    wide_sub !kappa
                      (wide_mul (ip z.(rr)) (ip g.(rr)))
              done)
        pb.socs;
      (* ρ = s·Px* + r and the tangent offset ½s·x*ᵀPx*, sharing the
         s·Px* enclosures. *)
      let quad = ref (ip 0.0) in
      let rho =
        Array.init n (fun i ->
            let pxi = ref (ip 0.0) in
            for j = 0 to n - 1 do
              if pb.p.(i).(j) <> 0.0 && x.(j) <> 0.0 then
                pxi :=
                  wide_add !pxi
                    (wide_mul (ip pb.p.(i).(j)) (ip x.(j)))
            done;
            let spxi = wide_mul (ip s_obj) !pxi in
            quad := wide_add !quad (wide_mul (ip x.(i)) spxi);
            wide_add spxi r.(i))
      in
      (* Coordinate box containing the feasible set, harvested from the
         single-nonzero half-space rows (the ±eᵢ box rows every LDA-FP
         relaxation carries; restriction preserves the shape).  Directed
         division keeps the harvested box outer. *)
      let xlo = Array.make n Float.neg_infinity in
      let xhi = Array.make n Float.infinity in
      Array.iter
        (fun { Socp.a; b } ->
          let idx = ref (-1) in
          let count = ref 0 in
          Array.iteri
            (fun i ai ->
              if ai <> 0.0 then begin
                incr count;
                idx := i
              end)
            a;
          if !count = 1 then begin
            let i = !idx in
            let ai = a.(i) in
            if ai > 0.0 then xhi.(i) <- Float.min xhi.(i) (dir_up (b /. ai))
            else xlo.(i) <- Float.max xlo.(i) (dir_down (b /. ai))
          end)
        pb.lins;
      (* bound = Σ min over the box of ρᵢ·xᵢ − ½s·x*ᵀPx* − κ. *)
      let lower =
        ref (wide_sub (neg (Interval.scale 0.5 !quad)) !kappa)
      in
      for i = 0 to n - 1 do
        lower :=
          wide_add !lower
            (wide_mul rho.(i) (Interval.make ~lo:xlo.(i) ~hi:xhi.(i)))
      done;
      Interval.lo !lower
    with
    | exception Invalid_argument msg ->
        fail (Printf.sprintf "interval evaluation: %s" msg)
    | dual_value ->
        if not (Float.is_finite dual_value) then
          fail
            "dual value not finite (nonzero residual on an unbounded \
             coordinate)"
        else begin
          let slack = sol.Socp.objective -. dual_value in
          if slack > max_rel_slack *. (1.0 +. Float.abs sol.Socp.objective) then begin
            Error (Socp.Cert_gap_excessive slack)
          end
          else begin
            Ok { Socp.dual_value; slack; repaired = !repaired }
          end
        end
  end
