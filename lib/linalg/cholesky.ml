exception Not_positive_definite of int

let factor_into ?(jitter = 0.0) a ~dst =
  if not (Mat.is_square a) then invalid_arg "Cholesky.factor: not square";
  if Mat.rows a <> Mat.rows dst || Mat.cols a <> Mat.cols dst then
    invalid_arg "Cholesky.factor_into: dst dimension mismatch";
  let n = Mat.rows a in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (a.(i).(j) +. if i = j then jitter else 0.0) in
      for k = 0 to j - 1 do
        s := !s -. (dst.(i).(k) *. dst.(j).(k))
      done;
      if i = j then begin
        if !s <= 0.0 then raise (Not_positive_definite i);
        dst.(i).(i) <- sqrt !s
      end
      else dst.(i).(j) <- !s /. dst.(j).(j)
    done;
    for j = i + 1 to n - 1 do
      dst.(i).(j) <- 0.0
    done
  done

let factor a =
  let l = Mat.zeros (Mat.rows a) (Mat.cols a) in
  factor_into a ~dst:l;
  l

(* The first attempt, with no jitter, succeeds on every well-posed
   call; it returns the static constant [0.0] and computes no scale, so
   the common path allocates nothing.  Only the retry ladder — jitter
   1e-12·max_abs a, then ten times more per failed try — allocates. *)
let factor_jittered_into ?(max_tries = 20) a ~dst =
  if max_tries < 0 then raise (Not_positive_definite (-1));
  match factor_into a ~dst with
  | () -> 0.0
  | exception Not_positive_definite _ ->
      let scale = Float.max (Mat.max_abs a) 1e-300 in
      let rec go jitter tries =
        if tries > max_tries then raise (Not_positive_definite (-1))
        else
          match factor_into ~jitter a ~dst with
          | () -> jitter
          | exception Not_positive_definite _ -> go (10.0 *. jitter) (tries + 1)
      in
      go (1e-12 *. scale) 1

let factor_jittered ?max_tries a =
  let l = Mat.zeros (Mat.rows a) (Mat.cols a) in
  let jitter = factor_jittered_into ?max_tries a ~dst:l in
  (l, jitter)

let solve_factored_into l b ~dst =
  Tri.solve_lower_into l b ~dst;
  Tri.solve_lower_transpose_into l dst ~dst

let solve_factored l b = Tri.solve_lower_transpose l (Tri.solve_lower l b)
let solve a b = solve_factored (factor a) b

let inverse a =
  let l = factor a in
  let n = Mat.rows a in
  Mat.init n n (fun i j -> (solve_factored l (Vec.basis n j)).(i))

let log_det a =
  let l = factor a in
  let s = ref 0.0 in
  for i = 0 to Mat.rows a - 1 do
    s := !s +. log l.(i).(i)
  done;
  2.0 *. !s

let is_positive_definite a =
  Mat.is_square a
  &&
  match factor a with
  | (_ : Mat.t) -> true
  | exception Not_positive_definite _ -> false
