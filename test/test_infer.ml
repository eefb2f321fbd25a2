(* Batched inference engine: bit-exactness of the C MAC kernels against
   the scalar datapath (QCheck, including saturation-boundary and
   63-bit product-wraparound inputs, and per-feature hetero formats),
   the zero-allocation steady state, the staged pipeline against its
   scalar lockstep reference, the C model-header golden file and table
   round-trip, and the infer metrics. *)

open Ldafp_core
open Fixedpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let clf_of_raws ?(polarity = true) fmt ~w_raws ~thr_raw ~exponents =
  Fixed_classifier.create ~polarity
    ~w:(Fx_vector.of_fx (Array.map (Fx.create fmt) w_raws))
    ~threshold:(Fx.create fmt thr_raw)
    ~scaling:(Scaling.of_exponents exponents)
    ()

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

(* Raw codes biased toward the format's corners — the saturation
   boundary and the codes whose products wrap. *)
let raw_gen fmt =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (Qformat.min_raw fmt) (Qformat.max_raw fmt));
        (1, oneofl [ Qformat.min_raw fmt; Qformat.max_raw fmt; 0; -1; 1 ]);
      ])

(* Inputs biased toward saturation (far outside any format range) and
   format-boundary magnitudes. *)
let input_gen fmt =
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-4.0) 4.0);
        (1, float_range (-1e7) 1e7);
        ( 1,
          oneofl
            [
              Qformat.min_value fmt;
              Qformat.max_value fmt;
              -.Qformat.min_value fmt;
              2.0 *. Qformat.max_value fmt;
            ] );
      ])

let fmt_gen =
  QCheck.Gen.(
    let* k = int_range 1 4 in
    let* f = int_range 0 8 in
    return (Qformat.make ~k ~f))

(* A uniform classifier plus a batch of raw input rows. *)
let arb_uniform_case ~rows =
  QCheck.make
    ~print:(fun (clf, _) ->
      Format.asprintf "%a" Fixed_classifier.pp clf)
    QCheck.Gen.(
      let* fmt = fmt_gen in
      let* m = int_range 1 8 in
      let* w_raws = array_size (return m) (raw_gen fmt) in
      let* thr_raw = raw_gen fmt in
      let* exponents = array_size (return m) (int_range (-3) 3) in
      let* polarity = bool in
      let* xs = list_size (return rows) (array_size (return m) (input_gen fmt)) in
      return
        (clf_of_raws ~polarity fmt ~w_raws ~thr_raw ~exponents, Array.of_list xs))

(* 400 cases x 256 rows = 102_400 randomized predictions. *)
let prop_uniform_bit_exact =
  QCheck.Test.make ~name:"batched kernel == scalar predict/margin (uniform)"
    ~count:400 (arb_uniform_case ~rows:256)
    (fun (clf, xs) ->
      let engine = Infer.Engine.of_fixed ~capacity:(Array.length xs) clf in
      let batch = Infer.Engine.make_batch engine in
      let n = Infer.Engine.load_rows engine batch xs in
      let preds = Bytes.create n in
      Infer.Engine.predict_into engine batch preds;
      Array.for_all
        (fun i ->
          let x = xs.(i) in
          Bytes.get preds i = '\001' = Fixed_classifier.predict clf x
          && Infer.Engine.margin engine i = Fixed_classifier.margin clf x)
        (Array.init n Fun.id))

let arb_hetero_case ~rows =
  QCheck.make
    QCheck.Gen.(
      let* acc_fmt = fmt_gen in
      let* m = int_range 1 6 in
      let* w_fmts = array_size (return m) fmt_gen in
      let* weights =
        array_size (return m) (float_range (-3.0) 3.0)
      in
      let* threshold = float_range (-1.5) 1.5 in
      let* exponents = array_size (return m) (int_range (-3) 3) in
      let* polarity = bool in
      let* xs =
        list_size (return rows) (array_size (return m) (input_gen acc_fmt))
      in
      let h =
        Hetero_classifier.create ~polarity ~acc_fmt ~formats:w_fmts ~weights
          ~threshold
          ~scaling:(Scaling.of_exponents exponents)
          ()
      in
      return (h, Array.of_list xs))

let prop_hetero_bit_exact =
  QCheck.Test.make
    ~name:"batched kernel == scalar predict (hetero per-feature formats)"
    ~count:200 (arb_hetero_case ~rows:128)
    (fun (h, xs) ->
      let engine = Infer.Engine.of_hetero ~capacity:(Array.length xs) h in
      let batch = Infer.Engine.make_batch engine in
      let n = Infer.Engine.load_rows engine batch xs in
      let preds = Bytes.create n in
      Infer.Engine.predict_into engine batch preds;
      Array.for_all
        (fun i -> Bytes.get preds i = '\001' = Hetero_classifier.predict h xs.(i))
        (Array.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Directed adversarial cases                                          *)
(* ------------------------------------------------------------------ *)

(* Q16.16: min_raw * min_raw = 2^62, one past the largest 63-bit OCaml
   int — the product wraps modulo 2^63 in the scalar datapath and the
   kernel must wrap identically. *)
let test_product_wraparound () =
  let fmt = Qformat.make ~k:16 ~f:16 in
  let w_raws = [| Qformat.min_raw fmt; Qformat.max_raw fmt |] in
  let clf =
    clf_of_raws fmt ~w_raws ~thr_raw:0 ~exponents:[| 0; 0 |]
  in
  let inputs =
    [|
      [| Qformat.min_value fmt; Qformat.min_value fmt |];
      [| Qformat.min_value fmt; Qformat.max_value fmt |];
      [| Qformat.max_value fmt; Qformat.min_value fmt |];
      [| -1e12; 1e12 |] (* saturates both features *);
    |]
  in
  let engine = Infer.Engine.of_fixed ~capacity:4 clf in
  let batch = Infer.Engine.make_batch engine in
  let n = Infer.Engine.load_rows engine batch inputs in
  let preds = Bytes.create n in
  Infer.Engine.predict_into engine batch preds;
  Array.iteri
    (fun i x ->
      checkb
        (Printf.sprintf "wraparound row %d" i)
        (Fixed_classifier.predict clf x)
        (Bytes.get preds i = '\001');
      checkb
        (Printf.sprintf "wraparound projection %d" i)
        true
        (Qformat.value_of_raw fmt (Infer.Engine.projection_raw engine i)
        = Fx.to_float (Fixed_classifier.project clf x)))
    inputs

let test_saturation_boundary () =
  (* Inputs exactly on and just past the representable boundary, with
     scaling exponents shifting them across it. *)
  let fmt = Qformat.make ~k:2 ~f:6 in
  let clf =
    clf_of_raws fmt
      ~w_raws:[| Qformat.max_raw fmt; Qformat.min_raw fmt; 17 |]
      ~thr_raw:(-3) ~exponents:[| 1; 0; -2 |]
  in
  let b = Qformat.max_value fmt in
  let u = Qformat.ulp fmt in
  let inputs =
    Array.concat
      (List.map
         (fun v -> [| [| v; v; v |]; [| -.v; v; -.v |]; [| v; -.v; 0.0 |] |])
         [ b; b +. u; b +. (u /. 2.0); 2.0 *. b; -2.0 *. b; 1e300 ])
  in
  let engine = Infer.Engine.of_fixed ~capacity:(Array.length inputs) clf in
  let batch = Infer.Engine.make_batch engine in
  let n = Infer.Engine.load_rows engine batch inputs in
  let preds = Bytes.create n in
  Infer.Engine.predict_into engine batch preds;
  Array.iteri
    (fun i x ->
      checkb
        (Printf.sprintf "saturation row %d" i)
        (Fixed_classifier.predict clf x)
        (Bytes.get preds i = '\001'))
    inputs

(* ------------------------------------------------------------------ *)
(* Zero-allocation steady state                                        *)
(* ------------------------------------------------------------------ *)

let test_steady_state_no_alloc () =
  Obs.Metrics.set_enabled false;
  let fmt = Qformat.make ~k:2 ~f:6 in
  let clf =
    clf_of_raws fmt ~w_raws:[| 31; -17; 5; 12 |] ~thr_raw:7
      ~exponents:[| 0; 1; 0; -1 |]
  in
  let engine = Infer.Engine.of_fixed ~capacity:256 clf in
  let batch = Infer.Engine.make_batch engine in
  let rng = Stats.Rng.create 7 in
  let rows =
    Array.init 256 (fun _ ->
        Array.init 4 (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0))
  in
  let n = Infer.Engine.load_rows engine batch rows in
  checki "batch full" 256 n;
  let preds = Bytes.create 256 in
  (* Warm up (first call may fault pages / build closures). *)
  for _ = 1 to 3 do
    Infer.Engine.predict_into engine batch preds
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Infer.Engine.predict_into engine batch preds
  done;
  let delta = Gc.minor_words () -. before in
  (* 1000 calls x 256 predictions: anything beyond the Gc.minor_words
     probe noise means a per-call allocation crept in. *)
  checkb
    (Printf.sprintf "steady-state batched predict allocates nothing (%.0f \
                     words)"
       delta)
    true (delta < 256.0)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let prometheus_counter_value name text =
  let v = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
             v :=
               int_of_float
                 (float_of_string
                    (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> ());
  !v

let test_metrics_count_predictions () =
  let fmt = Qformat.make ~k:2 ~f:4 in
  let clf = clf_of_raws fmt ~w_raws:[| 3; -5 |] ~thr_raw:1 ~exponents:[| 0; 0 |] in
  let engine = Infer.Engine.of_fixed ~capacity:64 clf in
  let batch = Infer.Engine.make_batch engine in
  let rows = Array.make 37 [| 0.25; -0.5 |] in
  let n = Infer.Engine.load_rows engine batch rows in
  let preds = Bytes.create n in
  let name = "ldafp_infer_predictions_total" in
  let read () =
    prometheus_counter_value name
      (Obs.Metrics.to_prometheus Obs.Metrics.default)
  in
  let before = read () in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () -> Infer.Engine.predict_into engine batch preds);
  checki "one count per prediction" (before + 37) (read ())

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_pipeline_identity_stages () =
  (* mean 0, inv_std 1, identity projection: the staged pipeline must
     equal the bare classifier (identity scaling, so the classifier's
     front end matches the pipeline's plain input quantisation). *)
  let fmt = Qformat.make ~k:2 ~f:6 in
  let m = 3 in
  let clf =
    clf_of_raws fmt ~w_raws:[| -31; 12; 7 |] ~thr_raw:(-5)
      ~exponents:(Array.make m 0)
  in
  let eye = Array.init m (fun i -> Array.init m (fun j -> if i = j then 1.0 else 0.0)) in
  let stages =
    [
      Infer.Stages.standardize ~in_fmt:fmt ~scale_fmt:(Qformat.make ~k:2 ~f:6)
        ~out_fmt:fmt ~means:(Array.make m 0.0)
        ~inv_stds:(Array.make m 1.0);
      Infer.Stages.project ~in_fmt:fmt ~mat_fmt:(Qformat.make ~k:2 ~f:6)
        ~out_fmt:fmt ~matrix:eye;
    ]
  in
  let pipe =
    Infer.Stages.create ~capacity:128 ~stages (Hetero_classifier.of_uniform clf)
  in
  let batch = Infer.Stages.make_batch pipe in
  let rng = Stats.Rng.create 11 in
  let rows =
    Array.init 128 (fun _ ->
        Array.init m (fun _ -> Stats.Rng.uniform rng ~lo:(-2.0) ~hi:2.0))
  in
  Array.iteri (fun c x -> Infer.Batch.load_floats batch ~col:c x) rows;
  Infer.Batch.set_length batch 128;
  let preds = Bytes.create 128 in
  Infer.Stages.run pipe batch preds;
  Array.iteri
    (fun i x ->
      checkb
        (Printf.sprintf "identity pipeline row %d" i)
        (Fixed_classifier.predict clf x)
        (Bytes.get preds i = '\001'))
    rows

let arb_pipeline_case ~rows =
  QCheck.make
    QCheck.Gen.(
      let* in_fmt = fmt_gen in
      let* scale_fmt = fmt_gen in
      let* mat_fmt = fmt_gen in
      (* Output fractional bits bounded by the available product bits,
         so every stage shift is non-negative by construction. *)
      let* mid_k = int_range 1 4 in
      let* mid_f =
        int_range 0 (min 8 (in_fmt.Qformat.f + scale_fmt.Qformat.f))
      in
      let mid_fmt = Qformat.make ~k:mid_k ~f:mid_f in
      let* acc_k = int_range 1 4 in
      let* acc_f =
        int_range 0 (min 8 (mid_fmt.Qformat.f + mat_fmt.Qformat.f))
      in
      let acc_fmt = Qformat.make ~k:acc_k ~f:acc_f in
      let* m_in = int_range 1 6 in
      let* m_out = int_range 1 4 in
      let* means = array_size (return m_in) (float_range (-2.0) 2.0) in
      let* inv_stds = array_size (return m_in) (float_range (-2.0) 2.0) in
      let* matrix =
        array_size (return m_out)
          (array_size (return m_in) (float_range (-2.0) 2.0))
      in
      let* w_raws = array_size (return m_out) (raw_gen acc_fmt) in
      let* thr_raw = raw_gen acc_fmt in
      let* polarity = bool in
      let* xs =
        list_size (return rows) (array_size (return m_in) (input_gen in_fmt))
      in
      let clf =
        clf_of_raws ~polarity acc_fmt ~w_raws ~thr_raw
          ~exponents:(Array.make m_out 0)
      in
      let stages =
        [
          Infer.Stages.standardize ~in_fmt ~scale_fmt ~out_fmt:mid_fmt
            ~means ~inv_stds;
          Infer.Stages.project ~in_fmt:mid_fmt ~mat_fmt ~out_fmt:acc_fmt
            ~matrix;
        ]
      in
      return
        ( Infer.Stages.create ~capacity:rows ~stages
            (Hetero_classifier.of_uniform clf),
          Array.of_list xs ))

let prop_pipeline_lockstep =
  QCheck.Test.make
    ~name:"staged pipeline == scalar lockstep reference" ~count:200
    (arb_pipeline_case ~rows:64)
    (fun (pipe, xs) ->
      let batch = Infer.Stages.make_batch pipe in
      Array.iteri (fun c x -> Infer.Batch.load_floats batch ~col:c x) xs;
      Infer.Batch.set_length batch (Array.length xs);
      let preds = Bytes.create (Array.length xs) in
      Infer.Stages.run pipe batch preds;
      Array.for_all
        (fun i ->
          Bytes.get preds i = '\001'
          = Infer.Stages.reference_predict pipe xs.(i))
        (Array.init (Array.length xs) Fun.id))

let test_pipeline_hetero_tail () =
  let acc_fmt = Qformat.make ~k:2 ~f:5 in
  let h =
    Hetero_classifier.create ~acc_fmt
      ~formats:[| Qformat.make ~k:2 ~f:3; Qformat.make ~k:1 ~f:7 |]
      ~weights:[| 1.25; -0.4 |] ~threshold:0.1
      ~scaling:(Scaling.of_exponents [| 0; 0 |])
      ()
  in
  let stages =
    [
      Infer.Stages.standardize ~in_fmt:acc_fmt
        ~scale_fmt:(Qformat.make ~k:2 ~f:4) ~out_fmt:acc_fmt
        ~means:[| 0.25; -0.125 |] ~inv_stds:[| 1.5; 0.75 |];
    ]
  in
  let pipe =
    Infer.Stages.create ~capacity:64 ~stages h
  in
  let batch = Infer.Stages.make_batch pipe in
  let rng = Stats.Rng.create 3 in
  let xs =
    Array.init 64 (fun _ ->
        Array.init 2 (fun _ -> Stats.Rng.uniform rng ~lo:(-4.0) ~hi:4.0))
  in
  Array.iteri (fun c x -> Infer.Batch.load_floats batch ~col:c x) xs;
  Infer.Batch.set_length batch 64;
  let preds = Bytes.create 64 in
  Infer.Stages.run pipe batch preds;
  Array.iteri
    (fun i x ->
      checkb
        (Printf.sprintf "hetero tail row %d" i)
        (Infer.Stages.reference_predict pipe x)
        (Bytes.get preds i = '\001'))
    xs

(* Q2.40 inputs times a Q2.40 table into Q8.8 is a 72-bit shift: past
   the 62 bits a product can hold, and undefined behaviour in the C
   kernels' 64-bit shifts. *)
let test_stage_shift_bound () =
  let q k f = Qformat.make ~k ~f in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: shift 72 must be refused" what
  in
  refused "project" (fun () ->
      Infer.Stages.project ~in_fmt:(q 2 40) ~mat_fmt:(q 2 40)
        ~out_fmt:(q 8 8) ~matrix:[| [| 1.0 |] |]);
  refused "standardize" (fun () ->
      Infer.Stages.standardize ~in_fmt:(q 2 40) ~scale_fmt:(q 2 40)
        ~out_fmt:(q 8 8) ~means:[| 0.0 |] ~inv_stds:[| 1.0 |]);
  (* 40 + 30 - 8 = 62 is the widest shift accepted. *)
  ignore
    (Infer.Stages.project ~in_fmt:(q 1 40) ~mat_fmt:(q 1 30) ~out_fmt:(q 1 8)
       ~matrix:[| [| 0.5 |] |]
      : Infer.Stages.stage)

(* ------------------------------------------------------------------ *)
(* C model header                                                      *)
(* ------------------------------------------------------------------ *)

let golden_clf () =
  clf_of_raws
    (Qformat.make ~k:2 ~f:4)
    ~w_raws:[| -7; 12; 3 |] ~thr_raw:5 ~exponents:[| 3; 3; 2 |]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs in _build/default/test (where the golden dep is
   staged); dune exec from the workspace root does not. *)
let golden_path name =
  List.find Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

let test_header_golden () =
  Alcotest.(check string)
    "header matches golden file"
    (read_file (golden_path "lda_model_fixed.h.golden"))
    (Model_io.c_header_of (golden_clf ()))

(* Pull the int list out of a generated [static const int32_t name[...]
   = { ... };] line, and the value of a [#define name v] line. *)
let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let header_array name text =
  let needle = name ^ "[LDAFP_NUM_FEATURES] = {" in
  match
    List.find_opt
      (fun l -> contains_substring l needle)
      (String.split_on_char '\n' text)
  with
  | None -> Alcotest.failf "array %s not found in header" name
  | Some line ->
      let lo = String.index line '{' + 1 in
      let hi = String.index line '}' in
      String.sub line lo (hi - lo)
      |> String.split_on_char ','
      |> List.map (fun s -> int_of_string (String.trim s))

let header_define name text =
  let prefix = "#define " ^ name ^ " " in
  match
    List.find_map
      (fun l ->
        if String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then
          let rest =
            String.sub l (String.length prefix)
              (String.length l - String.length prefix)
          in
          let rest =
            match String.index_opt rest '/' with
            | Some i -> String.sub rest 0 i
            | None -> rest
          in
          int_of_string_opt (String.trim rest)
        else None)
      (String.split_on_char '\n' text)
  with
  | Some v -> v
  | None -> Alcotest.failf "#define %s not found in header" name

let test_header_round_trip () =
  let clf = golden_clf () in
  let text = Model_io.c_header_of clf in
  let fmt = Fixed_classifier.format clf in
  checki "features" (Fixed_classifier.n_features clf)
    (header_define "LDAFP_NUM_FEATURES" text);
  checki "frac bits" fmt.Qformat.f (header_define "LDAFP_FRAC_BITS" text);
  checki "word length" (Qformat.word_length fmt)
    (header_define "LDAFP_WORD_LENGTH" text);
  checki "polarity"
    (if clf.Fixed_classifier.polarity then 1 else 0)
    (header_define "LDAFP_POLARITY" text);
  checki "threshold"
    (Fx.raw clf.Fixed_classifier.threshold)
    (header_define "LDAFP_THRESHOLD_RAW" text);
  Alcotest.(check (list int))
    "scale exponents"
    (Array.to_list
       (Array.init (Fixed_classifier.n_features clf)
          (Scaling.exponent clf.Fixed_classifier.scaling)))
    (header_array "ldafp_scale_exponent" text);
  Alcotest.(check (list int))
    "weight codes"
    (Array.to_list
       (Array.init (Fixed_classifier.n_features clf) (fun i ->
            Fx.raw (Fx_vector.get clf.Fixed_classifier.w i))))
    (header_array "ldafp_weight_raw" text)

(* The generated header plus a driver that prints ldafp_project_raw and
   ldafp_predict_raw for each raw vector read from stdin. *)
let header_driver =
  {|
int main(void)
{
  int32_t x[LDAFP_NUM_FEATURES];
  long v;
  int j;
  (void)ldafp_scale_exponent;
  for (;;) {
    for (j = 0; j < LDAFP_NUM_FEATURES; j++) {
      if (scanf("%ld", &v) != 1) return 0;
      x[j] = (int32_t)v;
    }
    printf("%lld %d\n", (long long)ldafp_project_raw(x), ldafp_predict_raw(x));
  }
}
|}

(* Compile it with the C compiler OCaml's build uses (test/dune stages
   its name; plain cc when run from the workspace root), run it over
   [xs], return one (projection, verdict) per vector. *)
let run_c_header clf xs =
  let cc =
    if Sys.file_exists "c_compiler.txt" then
      String.trim (read_file "c_compiler.txt")
    else "cc"
  in
  let base = Filename.temp_file "ldafp_header" "" in
  let file ext = Filename.quote (base ^ ext) in
  let write ext text =
    Out_channel.with_open_bin (base ^ ext) (fun oc -> output_string oc text)
  in
  let sh cmd = if Sys.command cmd <> 0 then Alcotest.failf "failed: %s" cmd in
  write ".c" ("#include <stdio.h>\n" ^ Model_io.c_header_of clf ^ header_driver);
  write ".in"
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun x -> String.concat " " (List.map string_of_int (Array.to_list x)))
             xs)));
  sh
    (Printf.sprintf "%s -std=c99 -O2 -Wall -Wextra -Werror -o %s %s" cc
       (file ".exe") (file ".c"));
  sh (Printf.sprintf "%s < %s > %s" (file ".exe") (file ".in") (file ".out"));
  let out = read_file (base ^ ".out") in
  List.iter
    (fun ext -> Sys.remove (base ^ ext))
    [ ""; ".c"; ".exe"; ".in"; ".out" ];
  String.split_on_char '\n' out
  |> List.filter (( <> ) "")
  |> List.map (fun l -> Scanf.sscanf l "%d %d" (fun y p -> (y, p = 1)))

(* The paper's Q3.0, small formats whose accumulators wrap often, and
   three splits of the widest exportable word (31 bits), 1500 raw
   vectors each biased toward the range corners. *)
let test_header_lockstep () =
  let rng = Random.State.make [| 14 |] in
  let checked = ref 0 and wrapped = ref 0 in
  List.iter
    (fun (k, f) ->
      let fmt = Qformat.make ~k ~f in
      let lo = Qformat.min_raw fmt and hi = Qformat.max_raw fmt in
      let raw () =
        if Random.State.int rng 4 = 0 then
          [| lo; hi; 0; 1; -1 |].(Random.State.int rng 5)
        else lo + Random.State.full_int rng (hi - lo + 1)
      in
      let m = 1 + Random.State.int rng 8 in
      let w_raws = Array.init m (fun _ -> raw ()) in
      let clf =
        clf_of_raws ~polarity:(Random.State.bool rng) fmt ~w_raws
          ~thr_raw:(raw ()) ~exponents:(Array.make m 0)
      in
      let xs = Array.init 1500 (fun _ -> Array.init m (fun _ -> raw ())) in
      let expected =
        Array.map
          (fun x ->
            let xq = Fx_vector.of_fx (Array.map (Fx.create fmt) x) in
            let y = Fx.raw (Fx_vector.dot clf.Fixed_classifier.w xq) in
            let exact = ref 0 in
            Array.iteri
              (fun j w ->
                exact :=
                  !exact
                  + Rounding.shift_right_rounded Rounding.Nearest (w * x.(j)) f)
              w_raws;
            if !exact <> y then incr wrapped;
            (y, Fixed_classifier.predict_quantized clf xq))
          xs
      in
      Alcotest.(check (list (pair int bool)))
        (Printf.sprintf "Q%d.%d header == predict_quantized" k f)
        (Array.to_list expected) (run_c_header clf xs);
      checked := !checked + Array.length xs)
    [ (3, 0); (2, 4); (1, 7); (4, 12); (31, 0); (16, 15); (1, 30) ];
  checkb (Printf.sprintf "%d >= 10^4 vectors" !checked) true
    (!checked >= 10_000);
  checkb (Printf.sprintf "%d accumulator wraps" !wrapped) true (!wrapped > 0)

let test_header_rejects_wide_words () =
  let fmt = Qformat.make ~k:16 ~f:16 in
  let clf = clf_of_raws fmt ~w_raws:[| 1 |] ~thr_raw:0 ~exponents:[| 0 |] in
  match Model_io.c_header_of clf with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "word length 32 must be refused"

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_uniform_bit_exact; prop_hetero_bit_exact; prop_pipeline_lockstep ]

let () =
  Alcotest.run "infer"
    [
      ("bit-exact", qcheck_tests);
      ( "adversarial",
        [
          Alcotest.test_case "63-bit product wraparound" `Quick
            test_product_wraparound;
          Alcotest.test_case "saturation boundary" `Quick
            test_saturation_boundary;
        ] );
      ( "steady state",
        [
          Alcotest.test_case "batched predict allocates nothing" `Quick
            test_steady_state_no_alloc;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "predictions counter" `Quick
            test_metrics_count_predictions;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "identity stages equal bare classifier" `Quick
            test_pipeline_identity_stages;
          Alcotest.test_case "hetero classifier tail" `Quick
            test_pipeline_hetero_tail;
          Alcotest.test_case "product shift above 62 refused" `Quick
            test_stage_shift_bound;
        ] );
      ( "c header",
        [
          Alcotest.test_case "golden file" `Quick test_header_golden;
          Alcotest.test_case "tables round-trip" `Quick test_header_round_trip;
          Alcotest.test_case "lockstep with predict_quantized" `Quick
            test_header_lockstep;
          Alcotest.test_case "wide word refused" `Quick
            test_header_rejects_wide_words;
        ] );
    ]
