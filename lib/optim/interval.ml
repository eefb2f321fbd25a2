type t = { lo : float; hi : float }

let make ~lo ~hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN bound";
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo %g > hi %g" lo hi);
  { lo; hi }

let point x = make ~lo:x ~hi:x
let lo t = t.lo
let hi t = t.hi
let width t = t.hi -. t.lo
let mid t = 0.5 *. (t.lo +. t.hi)
let mem t x = x >= t.lo && x <= t.hi

let clamp t x =
  if x < t.lo then t.lo else if x > t.hi then t.hi else x

let sup_sq t = Float.max (t.lo *. t.lo) (t.hi *. t.hi)

let inf_sq t =
  if t.lo <= 0.0 && t.hi >= 0.0 then 0.0
  else Float.min (t.lo *. t.lo) (t.hi *. t.hi)

let split ?at t =
  let c = match at with None -> mid t | Some x -> x in
  let c = Float.max t.lo (Float.min t.hi c) in
  (* Keep both halves non-degenerate when possible. *)
  let c =
    if c = t.lo || c = t.hi then mid t else c
  in
  ({ lo = t.lo; hi = c }, { lo = c; hi = t.hi })

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let scale c t =
  if c >= 0.0 then { lo = c *. t.lo; hi = c *. t.hi }
  else { lo = c *. t.hi; hi = c *. t.lo }

let shift d t = { lo = t.lo +. d; hi = t.hi +. d }
let contains_zero t = mem t 0.0
let equal a b = a.lo = b.lo && a.hi = b.hi
let pp ppf t = Format.fprintf ppf "[%g, %g]" t.lo t.hi
