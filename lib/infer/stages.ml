open Fixedpoint
module Hetero_classifier = Ldafp_core.Hetero_classifier

type stage =
  | Standardize of {
      in_fmt : Qformat.t;
      out_fmt : Qformat.t;
      shift : int; (* f_in + f_scale - f_out *)
      mean : Batch.ba1; (* raws in in_fmt *)
      inv : Batch.ba1; (* raws in scale_fmt *)
      features : int;
    }
  | Project of {
      in_fmt : Qformat.t;
      out_fmt : Qformat.t;
      shift : int; (* f_in + f_mat - f_out *)
      mat : Batch.ba2; (* (out_features, in_features) raws in mat_fmt *)
      shifts : Batch.ba1; (* [shift] for every input feature *)
      in_features : int;
      out_features : int;
    }

(* A shift past 62 bits would leave every product 0 or -1 anyway, and
   is undefined behaviour in the C kernels' 64-bit shifts. *)
let stage_shift ~what ~in_fmt ~tbl_fmt ~out_fmt =
  let s = in_fmt.Qformat.f + tbl_fmt.Qformat.f - out_fmt.Qformat.f in
  if s < 0 || s > 62 then
    invalid_arg
      (Printf.sprintf
         "Stages.%s: product shift f_in %d + f_table %d - f_out %d = %d is \
          outside [0, 62]"
         what in_fmt.Qformat.f tbl_fmt.Qformat.f out_fmt.Qformat.f s);
  s

let quantize_table fmt xs =
  let n = Array.length xs in
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill b 0;
  Array.iteri
    (fun i x -> b.{i} <- Fx.raw (Fx.of_float ~ov:Rounding.Saturate fmt x))
    xs;
  b

let standardize ~in_fmt ~scale_fmt ~out_fmt ~means ~inv_stds =
  let m = Array.length means in
  if m < 1 then invalid_arg "Stages.standardize: no features";
  if Array.length inv_stds <> m then
    invalid_arg "Stages.standardize: means/inv_stds length mismatch";
  Standardize
    {
      in_fmt;
      out_fmt;
      shift = stage_shift ~what:"standardize" ~in_fmt ~tbl_fmt:scale_fmt ~out_fmt;
      mean = quantize_table in_fmt means;
      inv = quantize_table scale_fmt inv_stds;
      features = m;
    }

let project ~in_fmt ~mat_fmt ~out_fmt ~matrix =
  let out_features = Array.length matrix in
  if out_features < 1 then invalid_arg "Stages.project: empty matrix";
  let in_features = Array.length matrix.(0) in
  if in_features < 1 then invalid_arg "Stages.project: empty matrix rows";
  Array.iter
    (fun row ->
      if Array.length row <> in_features then
        invalid_arg "Stages.project: ragged matrix")
    matrix;
  let mat =
    Bigarray.Array2.create Bigarray.int Bigarray.c_layout out_features
      in_features
  in
  for o = 0 to out_features - 1 do
    for j = 0 to in_features - 1 do
      mat.{o, j} <-
        Fx.raw (Fx.of_float ~ov:Rounding.Saturate mat_fmt matrix.(o).(j))
    done
  done;
  let shift = stage_shift ~what:"project" ~in_fmt ~tbl_fmt:mat_fmt ~out_fmt in
  let shifts = Bigarray.(Array1.create int c_layout in_features) in
  Bigarray.Array1.fill shifts shift;
  Project { in_fmt; out_fmt; shift; mat; shifts; in_features; out_features }

let stage_in_fmt = function
  | Standardize s -> s.in_fmt
  | Project p -> p.in_fmt

let stage_out_fmt = function
  | Standardize s -> s.out_fmt
  | Project p -> p.out_fmt

let stage_in_features = function
  | Standardize s -> s.features
  | Project p -> p.in_features

let stage_out_features = function
  | Standardize s -> s.features
  | Project p -> p.out_features

type t = {
  stages : stage array;
  bufs : Batch.t array; (* output batch of each stage *)
  engine : Engine.t;
  model : Hetero_classifier.t; (* kept for the scalar reference *)
  in_fmt : Qformat.t;
  in_features : int;
}

let create ?(capacity = 1024) ~stages model =
  let stages = Array.of_list stages in
  let engine = Engine.of_hetero ~capacity model in
  let n = Array.length stages in
  for i = 0 to n - 2 do
    if stage_out_features stages.(i) <> stage_in_features stages.(i + 1) then
      invalid_arg
        (Printf.sprintf "Stages.create: stage %d emits %d features, stage \
                         %d expects %d"
           i
           (stage_out_features stages.(i))
           (i + 1)
           (stage_in_features stages.(i + 1)));
    if not (Qformat.equal (stage_out_fmt stages.(i)) (stage_in_fmt stages.(i + 1)))
    then
      invalid_arg
        (Printf.sprintf "Stages.create: stage %d/%d format mismatch" i (i + 1))
  done;
  (if n > 0 then begin
     let last = stages.(n - 1) in
     if stage_out_features last <> Engine.n_features engine then
       invalid_arg "Stages.create: last stage/classifier feature mismatch";
     if not (Qformat.equal (stage_out_fmt last) (Engine.format engine)) then
       invalid_arg "Stages.create: last stage/classifier format mismatch"
   end);
  let bufs =
    Array.map
      (fun s ->
        Batch.create ~fmt:(stage_out_fmt s) ~features:(stage_out_features s)
          ~capacity)
      stages
  in
  let in_fmt =
    if n > 0 then stage_in_fmt stages.(0) else Engine.format engine
  in
  let in_features =
    if n > 0 then stage_in_features stages.(0)
    else Engine.n_features engine
  in
  { stages; bufs; engine; model; in_fmt; in_features }

let capacity t = Engine.capacity t.engine

let make_batch t =
  Batch.create ~fmt:t.in_fmt ~features:t.in_features ~capacity:(capacity t)

let apply_stage stage input output =
  let n = Batch.length input in
  Batch.set_length output n;
  match stage with
  | Standardize s ->
      Kernels.affine s.mean s.inv (Batch.data input) (Batch.data output) n
        s.shift
        (Qformat.word_length s.out_fmt)
  | Project p ->
      Kernels.mac p.mat p.shifts (Batch.data input) (Batch.data output) n
        (Qformat.word_length p.out_fmt)

let run t input out =
  if not (Qformat.equal (Batch.format input) t.in_fmt) then
    invalid_arg "Stages.run: input format mismatch";
  if Batch.n_features input <> t.in_features then
    invalid_arg "Stages.run: input feature mismatch";
  if Batch.length input > capacity t then
    invalid_arg "Stages.run: batch longer than pipeline capacity";
  let n = Array.length t.stages in
  for i = 0 to n - 1 do
    let src = if i = 0 then input else t.bufs.(i - 1) in
    apply_stage t.stages.(i) src t.bufs.(i)
  done;
  let last = if n = 0 then input else t.bufs.(n - 1) in
  Engine.predict_into t.engine last out

(* Scalar lockstep reference: identical arithmetic in plain OCaml ints.
   OCaml native-int [*] is exactly the kernels' mul-wrap-2^63, and
   Rounding.shift_right_rounded Nearest is their shr_round_even. *)

let reference_stage stage x =
  match stage with
  | Standardize s ->
      Array.init s.features (fun j ->
          let d = x.(j) - s.mean.{j} in
          let p = d * s.inv.{j} in
          let p = Rounding.shift_right_rounded Rounding.Nearest p s.shift in
          Qformat.saturate_raw s.out_fmt p)
  | Project p ->
      Array.init p.out_features (fun o ->
          let acc = ref 0 in
          for j = 0 to p.in_features - 1 do
            acc :=
              Fx_vector.mac_step p.out_fmt ~shift:p.shift !acc p.mat.{o, j}
                x.(j)
          done;
          !acc)

let reference_predict t x =
  if Array.length x <> t.in_features then
    invalid_arg "Stages.reference_predict: dimension mismatch";
  let raws =
    Array.map
      (fun v -> Fx.raw (Fx.of_float ~ov:Rounding.Saturate t.in_fmt v))
      x
  in
  let raws = Array.fold_left (fun r s -> reference_stage s r) raws t.stages in
  Hetero_classifier.predict_quantized t.model raws
