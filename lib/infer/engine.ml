open Fixedpoint
module Hetero_classifier = Ldafp_core.Hetero_classifier
module Scaling = Ldafp_core.Scaling

type t = {
  fmt : Qformat.t; (* accumulator / feature format *)
  bits : int; (* word_length fmt *)
  w : Batch.ba2; (* weight raw codes, one MAC output row *)
  shifts : Batch.ba1; (* per-feature product shift: the weight's f *)
  thr_raw : int;
  polarity : bool;
  exponents : int array; (* front-end scaling, x_j / 2^e_j *)
  proj : Batch.ba2; (* scratch projections, (1, capacity) *)
  capacity : int;
  features : int;
}

(* Registered eagerly at module init (before any domain is spawned);
   every recording site is guarded by [Obs.Metrics.enabled] so the
   disabled path is one atomic load and allocates nothing. *)
let m_predictions_total =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Predictions served by the batched inference engine"
    "ldafp_infer_predictions_total"

let m_batch_seconds =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Wall time of one batched predict_into call" ~lo:1e-8 ~hi:1.0
    "ldafp_infer_batch_seconds"

let of_hetero ?(capacity = 1024) (h : Hetero_classifier.t) =
  if capacity < 1 then invalid_arg "Engine.of_hetero: capacity must be >= 1";
  let features = Hetero_classifier.n_features h in
  if features < 1 then invalid_arg "Engine.of_hetero: model has no features";
  let row n = Bigarray.Array2.create Bigarray.int Bigarray.c_layout 1 n in
  let w = row features and proj = row capacity in
  Array.iteri (fun j r -> w.{0, j} <- r) h.Hetero_classifier.w_raws;
  Bigarray.Array2.fill proj 0;
  let fmt = h.Hetero_classifier.acc_fmt in
  {
    fmt;
    bits = Qformat.word_length fmt;
    w;
    shifts =
      Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout
        (Array.map (fun f -> f.Qformat.f) h.Hetero_classifier.w_fmts);
    thr_raw = Fx.raw h.Hetero_classifier.threshold;
    polarity = h.Hetero_classifier.polarity;
    exponents =
      Array.init features (Scaling.exponent h.Hetero_classifier.scaling);
    proj;
    capacity;
    features;
  }

(* A uniform classifier is the hetero case with every shift equal to f. *)
let of_fixed ?capacity clf =
  of_hetero ?capacity (Hetero_classifier.of_uniform clf)

let n_features t = t.features
let capacity t = t.capacity
let format t = t.fmt
let make_batch t = Batch.create ~fmt:t.fmt ~features:t.features ~capacity:t.capacity

let load t batch ~col x =
  if Array.length x <> t.features then
    invalid_arg "Engine.load: dimension mismatch";
  for j = 0 to t.features - 1 do
    let v = ldexp (Array.unsafe_get x j) (-t.exponents.(j)) in
    Batch.set_raw batch ~feature:j ~col
      (Fx.raw (Fx.of_float ~ov:Rounding.Saturate t.fmt v))
  done

let load_rows t batch ?(start = 0) ?n rows =
  let avail = max 0 (Array.length rows - start) in
  let fit = min avail (Batch.capacity batch) in
  let n = match n with Some n -> min (max n 0) fit | None -> fit in
  for c = 0 to n - 1 do
    load t batch ~col:c rows.(start + c)
  done;
  Batch.set_length batch n;
  n

let project_into t batch =
  if not (Qformat.equal (Batch.format batch) t.fmt) then
    invalid_arg "Engine.project_into: batch format mismatch";
  if Batch.n_features batch <> t.features then
    invalid_arg "Engine.project_into: feature count mismatch";
  let n = Batch.length batch in
  if n > t.capacity then
    invalid_arg "Engine.project_into: batch longer than engine capacity";
  Kernels.mac t.w t.shifts (Batch.data batch) t.proj n t.bits

let projection_raw t i = t.proj.{0, i}

let margin t i =
  let y = Qformat.value_of_raw t.fmt (projection_raw t i) in
  let thr = Qformat.value_of_raw t.fmt t.thr_raw in
  if t.polarity then y -. thr else thr -. y -. Qformat.ulp t.fmt

let predict_into t batch out =
  let n = Batch.length batch in
  if Bytes.length out < n then
    invalid_arg "Engine.predict_into: output buffer too short";
  let metrics_on = Obs.Metrics.enabled () in
  let trace_on = Obs.Trace.enabled () in
  let t0 = if metrics_on || trace_on then Obs.Clock.now_ns () else 0 in
  project_into t batch;
  let thr = t.thr_raw in
  if t.polarity then
    for i = 0 to n - 1 do
      Bytes.unsafe_set out i
        (if Bigarray.Array2.unsafe_get t.proj 0 i >= thr then '\001' else '\000')
    done
  else
    for i = 0 to n - 1 do
      Bytes.unsafe_set out i
        (if Bigarray.Array2.unsafe_get t.proj 0 i < thr then '\001' else '\000')
    done;
  if metrics_on then begin
    Obs.Metrics.add m_predictions_total n;
    Obs.Metrics.observe m_batch_seconds
      (float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9)
  end;
  if trace_on then
    Obs.Trace.complete ~cat:"infer" "infer.batch" ~t0_ns:t0
      ~dur_ns:(Obs.Clock.now_ns () - t0)
      ~args:[ ("batch", Obs.Trace.Int n) ]
