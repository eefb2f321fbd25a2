type t = { fmt : Qformat.t; raws : int array }
(* Invariant: every element of [raws] lies in the raw range of [fmt]. *)

let of_floats ?(mode = Rounding.Nearest) ?(ov = Rounding.Wrap) fmt xs =
  { fmt; raws = Array.map (fun x -> Fx.raw (Fx.of_float ~mode ~ov fmt x)) xs }

let of_fx arr =
  if Array.length arr = 0 then invalid_arg "Fx_vector.of_fx: empty array";
  let fmt = Fx.format arr.(0) in
  Array.iter
    (fun x ->
      if not (Qformat.equal (Fx.format x) fmt) then
        invalid_arg "Fx_vector.of_fx: mixed formats")
    arr;
  { fmt; raws = Array.map Fx.raw arr }

let to_floats { fmt; raws } = Array.map (Qformat.value_of_raw fmt) raws
let to_fx { fmt; raws } = Array.map (Fx.create fmt) raws
let length t = Array.length t.raws
let format t = t.fmt
let get t i = Fx.create t.fmt t.raws.(i)

let check_compatible op a b =
  if not (Qformat.equal a.fmt b.fmt) then
    invalid_arg (Printf.sprintf "Fx_vector.%s: format mismatch" op);
  if Array.length a.raws <> Array.length b.raws then
    invalid_arg (Printf.sprintf "Fx_vector.%s: length mismatch" op)

(* Wrapping is reduction modulo 2^wl, so wrapping the rounded product
   into [acc_fmt] before the add (as a product register would) gives the
   same sum; OCaml's own wrap of [w * x] and [acc + p] modulo 2^63 is
   compatible with it because wl <= 62. *)
let mac_step acc_fmt ~shift acc w x =
  Qformat.wrap_raw acc_fmt
    (acc + Rounding.shift_right_rounded Rounding.Nearest (w * x) shift)

let dot a b =
  check_compatible "dot" a b;
  let fmt = a.fmt in
  let shift = fmt.Qformat.f in
  let acc = ref 0 in
  for i = 0 to Array.length a.raws - 1 do
    acc := mac_step fmt ~shift !acc a.raws.(i) b.raws.(i)
  done;
  Fx.create fmt !acc

let dot_reference a b =
  check_compatible "dot_reference" a b;
  let fa = to_floats a and fb = to_floats b in
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. (x *. fb.(i))) fa;
  !s

let equal a b =
  Qformat.equal a.fmt b.fmt
  && Array.length a.raws = Array.length b.raws
  && Array.for_all2 ( = ) a.raws b.raws

let pp ppf t =
  Format.fprintf ppf "[@[%a@]]:%a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Array.to_list (to_floats t))
    Qformat.pp t.fmt
