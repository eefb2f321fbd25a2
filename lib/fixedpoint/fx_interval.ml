type t = { fmt : Qformat.t; lo_raw : int; hi_raw : int }

let of_raw fmt ~lo ~hi =
  if lo > hi then invalid_arg "Fx_interval.of_raw: lo > hi";
  if lo < Qformat.min_raw fmt || hi > Qformat.max_raw fmt then
    invalid_arg "Fx_interval.of_raw: endpoints out of raw range";
  { fmt; lo_raw = lo; hi_raw = hi }

let of_values fmt ~lo ~hi =
  let lo_g = Float.max lo (Qformat.min_value fmt) in
  let hi_g = Float.min hi (Qformat.max_value fmt) in
  let lo_r = int_of_float (Float.ceil (ldexp lo_g fmt.Qformat.f -. 1e-9)) in
  let hi_r = int_of_float (Float.floor (ldexp hi_g fmt.Qformat.f +. 1e-9)) in
  if lo_r > hi_r then
    invalid_arg
      (Printf.sprintf "Fx_interval.of_values: no %s grid point in [%g, %g]"
         (Qformat.to_string fmt) lo hi);
  of_raw fmt ~lo:lo_r ~hi:hi_r

let full fmt = { fmt; lo_raw = Qformat.min_raw fmt; hi_raw = Qformat.max_raw fmt }
(* [Qformat.value_of_raw], inlined: a float returned across a module
   boundary is boxed on every call, and [mem] sits on the polish loop. *)
let[@inline] value_of t r =
  ldexp (float_of_int (Qformat.wrap_raw t.fmt r)) (-t.fmt.Qformat.f)

let lo t = value_of t t.lo_raw
let hi t = value_of t t.hi_raw
let count t = t.hi_raw - t.lo_raw + 1
let is_singleton t = t.lo_raw = t.hi_raw
let singleton_value t = if is_singleton t then Some (lo t) else None
let[@inline] mem t x = x >= value_of t t.lo_raw && x <= value_of t t.hi_raw

let mem_all box xs =
  if Array.length box <> Array.length xs then
    invalid_arg "Fx_interval.mem_all: length mismatch";
  let ok = ref true in
  for i = 0 to Array.length xs - 1 do
    if !ok && not (mem box.(i) xs.(i)) then ok := false
  done;
  !ok

(* Floor division by 2: [/] truncates toward zero, which for negative
   raw sums biases midpoints upward and makes splits of mirrored
   intervals asymmetric (e.g. [-5,-2] would cut into 3+1 raws where
   [2,5] cuts 2+2). *)
let half_raw_sum t = (t.lo_raw + t.hi_raw) asr 1

let mid t = Qformat.value_of_raw t.fmt (half_raw_sum t)

let split ?at t =
  if is_singleton t then None
  else
    let cut =
      match at with
      | None -> half_raw_sum t
      | Some x ->
          let r = Rounding.round_scaled Rounding.Nearest (ldexp x t.fmt.Qformat.f) in
          (* Left half is [lo, cut]; ensure both halves non-empty. *)
          let r = max t.lo_raw (min r (t.hi_raw - 1)) in
          r
    in
    let cut = max t.lo_raw (min cut (t.hi_raw - 1)) in
    Some
      ( { t with hi_raw = cut },
        { t with lo_raw = cut + 1 } )

let[@inline] clamp_value t x =
  let r = Rounding.round_scaled Rounding.Nearest (ldexp x t.fmt.Qformat.f) in
  let r = max t.lo_raw (min r t.hi_raw) in
  value_of t r

let clamp_values box xs =
  let out = Array.make (Array.length xs) 0.0 in
  for j = 0 to Array.length xs - 1 do
    out.(j) <- clamp_value box.(j) xs.(j)
  done;
  out

let width t = hi t -. lo t

let values t =
  let n = count t in
  if n > 1 lsl 20 then invalid_arg "Fx_interval.values: interval too large";
  Array.init n (fun i -> Qformat.value_of_raw t.fmt (t.lo_raw + i))

let equal a b =
  Qformat.equal a.fmt b.fmt && a.lo_raw = b.lo_raw && a.hi_raw = b.hi_raw

let pp ppf t =
  Format.fprintf ppf "[%g, %g]@%a" (lo t) (hi t) Qformat.pp t.fmt
