type t = float array array

let make m n x =
  if m < 0 || n < 0 then invalid_arg "Mat.make: negative dimension";
  Array.init m (fun _ -> Array.make n x)

let zeros m n = make m n 0.0

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))

let init m n f = Array.init m (fun i -> Array.init n (fun j -> f i j))

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let rows a = Array.length a
let cols a = if Array.length a = 0 then 0 else Array.length a.(0)
let dims a = (rows a, cols a)

let diagonal a =
  let n = min (rows a) (cols a) in
  Array.init n (fun i -> a.(i).(i))

let copy a = Array.map Array.copy a
let get a i j = a.(i).(j)
let set a i j x = a.(i).(j) <- x
let row a i = Array.copy a.(i)
let col a j = Array.init (rows a) (fun i -> a.(i).(j))

let of_rows rs =
  if Array.length rs = 0 then [||]
  else begin
    let n = Array.length rs.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> n then invalid_arg "Mat.of_rows: ragged rows")
      rs;
    Array.map Array.copy rs
  end

let transpose a = init (cols a) (rows a) (fun i j -> a.(j).(i))

(* Compared field by field: [dims] builds a tuple, and this check runs
   on every Newton iteration. *)
let check_same op a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" op (rows a)
         (cols a) (rows b) (cols b))

let add a b =
  check_same "add" a b;
  init (rows a) (cols a) (fun i j -> a.(i).(j) +. b.(i).(j))

let sub a b =
  check_same "sub" a b;
  init (rows a) (cols a) (fun i j -> a.(i).(j) -. b.(i).(j))

let scale c a = Array.map (Array.map (fun x -> c *. x)) a

let scale_into c a ~dst =
  check_same "scale_into" a dst;
  for i = 0 to rows a - 1 do
    let ai = a.(i) and di = dst.(i) in
    for j = 0 to cols a - 1 do
      di.(j) <- c *. ai.(j)
    done
  done

let mul a b =
  if cols a <> rows b then
    invalid_arg
      (Printf.sprintf "Mat.mul: inner dimension mismatch (%d vs %d)" (cols a)
         (rows b));
  let m = rows a and n = cols b and k = cols a in
  let c = zeros m n in
  for i = 0 to m - 1 do
    let ai = a.(i) and ci = c.(i) in
    for l = 0 to k - 1 do
      let ail = ai.(l) in
      if ail <> 0.0 then begin
        let bl = b.(l) in
        for j = 0 to n - 1 do
          ci.(j) <- ci.(j) +. (ail *. bl.(j))
        done
      end
    done
  done;
  c

let mul_vec a x =
  if cols a <> Array.length x then
    invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.map (fun r -> Vec.dot r x) a

let mul_vec_into a x ~dst =
  if cols a <> Array.length x then
    invalid_arg "Mat.mul_vec_into: dimension mismatch";
  if rows a <> Array.length dst then
    invalid_arg "Mat.mul_vec_into: dst dimension mismatch";
  for i = 0 to rows a - 1 do
    dst.(i) <- Vec.dot a.(i) x
  done

let tmul_vec_into a x ~dst =
  if rows a <> Array.length x then
    invalid_arg "Mat.tmul_vec_into: dimension mismatch";
  let n = cols a in
  if Array.length dst <> n then
    invalid_arg "Mat.tmul_vec_into: dst dimension mismatch";
  Array.fill dst 0 n 0.0;
  for i = 0 to rows a - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      let ai = a.(i) in
      for j = 0 to n - 1 do
        dst.(j) <- dst.(j) +. (xi *. ai.(j))
      done
  done

let tmul_vec a x =
  if rows a <> Array.length x then
    invalid_arg "Mat.tmul_vec: dimension mismatch";
  let y = Array.make (cols a) 0.0 in
  tmul_vec_into a x ~dst:y;
  y

let outer u v = init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let quadratic_form a x = Vec.dot x (mul_vec a x)

let add_scaled_identity c a =
  if rows a <> cols a then invalid_arg "Mat.add_scaled_identity: not square";
  init (rows a) (cols a) (fun i j -> if i = j then a.(i).(j) +. c else a.(i).(j))

let trace a =
  let n = min (rows a) (cols a) in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. a.(i).(i)
  done;
  !s

let frobenius_norm a =
  sqrt
    (Array.fold_left
       (fun s r -> s +. Array.fold_left (fun s x -> s +. (x *. x)) 0.0 r)
       0.0 a)

let is_square a = rows a = cols a

let is_symmetric ?(tol = 1e-9) a =
  is_square a
  &&
  let n = rows a in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Float.abs (a.(i).(j) -. a.(j).(i)) > tol then ok := false
    done
  done;
  !ok

let symmetrize a =
  if not (is_square a) then invalid_arg "Mat.symmetrize: not square";
  init (rows a) (cols a) (fun i j -> 0.5 *. (a.(i).(j) +. a.(j).(i)))

let symmetrize_into a ~dst =
  if not (is_square a) then invalid_arg "Mat.symmetrize_into: not square";
  check_same "symmetrize_into" a dst;
  let n = rows a in
  for i = 0 to n - 1 do
    dst.(i).(i) <- a.(i).(i);
    for j = i + 1 to n - 1 do
      let m = 0.5 *. (a.(i).(j) +. a.(j).(i)) in
      dst.(i).(j) <- m;
      dst.(j).(i) <- m
    done
  done

let max_abs a =
  Array.fold_left
    (fun s r -> Array.fold_left (fun s x -> Float.max s (Float.abs x)) s r)
    0.0 a

let approx_equal ?(tol = 1e-9) a b =
  dims a = dims b
  && Array.for_all2 (fun ra rb -> Vec.approx_equal ~tol ra rb) a b

let pp ppf a =
  Format.fprintf ppf "[@[<v>%a@]]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Vec.pp)
    (Array.to_list a)
