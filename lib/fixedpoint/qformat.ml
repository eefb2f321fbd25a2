type t = { k : int; f : int }

let make ~k ~f =
  if k < 1 then invalid_arg "Qformat.make: k must be >= 1 (sign bit)";
  if f < 0 then invalid_arg "Qformat.make: f must be >= 0";
  if k + f > 62 then invalid_arg "Qformat.make: word length must be <= 62";
  { k; f }

let word_length { k; f } = k + f
let ulp { f; _ } = ldexp 1.0 (-f)
let[@inline] min_value { k; _ } = -.ldexp 1.0 (k - 1)
let[@inline] max_value { k; f } = ldexp 1.0 (k - 1) -. ldexp 1.0 (-f)
let min_raw { k; f } = -(1 lsl (k + f - 1))
let max_raw { k; f } = (1 lsl (k + f - 1)) - 1
let cardinality { k; f } = 1 lsl (k + f)
let in_range fmt x = x >= min_value fmt && x <= max_value fmt

let wrap_raw fmt r =
  let bits = word_length fmt in
  let m = 1 lsl bits in
  (* Reduce modulo 2^bits, then sign-extend. *)
  let r = r land (m - 1) in
  if r >= 1 lsl (bits - 1) then r - m else r

let saturate_raw fmt r =
  if r < min_raw fmt then min_raw fmt
  else if r > max_raw fmt then max_raw fmt
  else r

let value_of_raw fmt r = ldexp (float_of_int (wrap_raw fmt r)) (-fmt.f)

let raw_of_value_exn fmt x =
  let scaled = ldexp x fmt.f in
  let r = Float.round scaled in
  if Float.abs (scaled -. r) > 1e-9 then
    invalid_arg
      (Printf.sprintf "Qformat.raw_of_value_exn: %g is not on the Q%d.%d grid"
         x fmt.k fmt.f);
  (* Range-check as floats: [int_of_float] is unspecified once the
     scaled value exceeds the [int] range. *)
  if r < float_of_int (min_raw fmt) || r > float_of_int (max_raw fmt) then
    invalid_arg
      (Printf.sprintf "Qformat.raw_of_value_exn: %g out of Q%d.%d range" x
         fmt.k fmt.f);
  int_of_float r

let floor_to_grid fmt x = ldexp (Float.floor (ldexp x fmt.f)) (-fmt.f)
let ceil_to_grid fmt x = ldexp (Float.ceil (ldexp x fmt.f)) (-fmt.f)

let[@inline] nearest_on_grid fmt x =
  (* Float.round is round-half-away-from-zero; use banker-ish behaviour by
     rounding the scaled value with [Float.round] on the half-offset grid.
     We follow IEEE round-to-nearest-even on the scaled integer. *)
  let s = ldexp x fmt.f in
  let lo = Float.floor s and hi = Float.ceil s in
  let r =
    if lo = hi then lo
    else
      let dl = s -. lo and dh = hi -. s in
      if dl < dh then lo
      else if dh < dl then hi
      else if Float.rem lo 2.0 = 0.0 then lo
      else hi
  in
  ldexp r (-fmt.f)

(* Vector form of [in_range] and [nearest_on_grid], inlined: scalar
   calls from another module would box every float. *)
let all_on_grid fmt ~tol xs =
  let lo = min_value fmt and hi = max_value fmt in
  let ok = ref true in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    if !ok && not (x >= lo && x <= hi && Float.abs (x -. nearest_on_grid fmt x) < tol)
    then ok := false
  done;
  !ok

let clamp fmt x =
  if x < min_value fmt then min_value fmt
  else if x > max_value fmt then max_value fmt
  else x

let values fmt =
  if word_length fmt > 24 then
    invalid_arg "Qformat.values: word length too large to enumerate";
  let lo = min_raw fmt in
  Array.init (cardinality fmt) (fun i -> value_of_raw fmt (lo + i))

let equal a b = a.k = b.k && a.f = b.f
let compare a b = Stdlib.compare (a.k, a.f) (b.k, b.f)
let pp ppf { k; f } = Format.fprintf ppf "Q%d.%d" k f
let to_string fmt = Format.asprintf "%a" pp fmt
