open Fixedpoint

type t = {
  w_raws : int array;
  w_fmts : Qformat.t array;
  acc_fmt : Qformat.t;
  threshold : Fx.t;
  scaling : Scaling.t;
  polarity : bool;
}

let create ?(polarity = true) ~acc_fmt ~formats ~weights ~threshold ~scaling
    () =
  let m = Array.length weights in
  if Array.length formats <> m then
    invalid_arg "Hetero_classifier.create: formats/weights length mismatch";
  if Scaling.dim scaling <> m then
    invalid_arg "Hetero_classifier.create: scaling dimension mismatch";
  let w_raws =
    Array.mapi
      (fun j x ->
        Fx.raw (Fx.of_float ~ov:Rounding.Saturate formats.(j) x))
      weights
  in
  {
    w_raws;
    w_fmts = Array.copy formats;
    acc_fmt;
    threshold = Fx.of_float ~ov:Rounding.Saturate acc_fmt threshold;
    scaling;
    polarity;
  }

let of_uniform (clf : Fixed_classifier.t) =
  let fmt = Fixed_classifier.format clf in
  let m = Fixed_classifier.n_features clf in
  {
    w_raws = Array.map Fx.raw (Fx_vector.to_fx clf.Fixed_classifier.w);
    w_fmts = Array.make m fmt;
    acc_fmt = fmt;
    threshold = clf.Fixed_classifier.threshold;
    scaling = clf.Fixed_classifier.scaling;
    polarity = clf.Fixed_classifier.polarity;
  }

let n_features t = Array.length t.w_raws

let weights t =
  Array.mapi (fun j r -> Qformat.value_of_raw t.w_fmts.(j) r) t.w_raws

let quantize_input t x =
  Array.map
    (fun v -> Fx.raw (Fx.of_float ~ov:Rounding.Saturate t.acc_fmt v))
    (Scaling.apply_vec t.scaling x)

(* Product raw is in units 2^-(f_m + f_acc); the MAC step rounds away the
   weight's f_m bits to land back on the accumulator's grid. *)
let project_quantized t xq =
  if Array.length xq <> Array.length t.w_raws then
    invalid_arg "Hetero_classifier.predict_quantized: dimension mismatch";
  let acc = ref 0 in
  Array.iteri
    (fun j w_raw ->
      acc :=
        Fx_vector.mac_step t.acc_fmt ~shift:t.w_fmts.(j).Qformat.f !acc w_raw
          xq.(j))
    t.w_raws;
  Fx.create t.acc_fmt !acc

let predict_quantized t xq =
  let y = project_quantized t xq in
  if t.polarity then Fx.compare y t.threshold >= 0
  else Fx.compare y t.threshold < 0

let project t x = project_quantized t (quantize_input t x)
let predict t x = predict_quantized t (quantize_input t x)

let weight_bits t = Array.map Qformat.word_length t.w_fmts
let total_weight_bits t = Array.fold_left ( + ) 0 (weight_bits t)

let multiplier_cost t =
  let wlx = float_of_int (Qformat.word_length t.acc_fmt) in
  Array.fold_left
    (fun acc fmt -> acc +. (float_of_int (Qformat.word_length fmt) *. wlx))
    0.0 t.w_fmts

let pp ppf t =
  Format.fprintf ppf "hetero{acc=%a; w=[@[%a@]]}" Qformat.pp t.acc_fmt
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf (r, fmt) ->
         Format.fprintf ppf "%g:%a" (Qformat.value_of_raw fmt r) Qformat.pp fmt))
    (Array.to_list (Array.map2 (fun r f -> (r, f)) t.w_raws t.w_fmts))
