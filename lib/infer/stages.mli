(** The full on-chip datapath: Raw → Standardize → PCA → LDA, batched.

    Mirrors the RISC-V LDA exemplar's model header: every stage is a set
    of baked fixed-point tables in an explicit Q-format, and the stage
    arithmetic is the same wrapping MAC / rounding-shift datapath as the
    classifier itself, so the software twin stays bit-exact with the
    hardware spec.

    - {!standardize}: per-feature [(x - mean) * inv_std], the product
      rounded (half to even) back to the output format and {e
      saturated} — the front-end conditioning stage.
    - {!project}: a rectangular matrix MAC (PCA / learned transform),
      the classifier's own {!Fixedpoint.Fx_vector.mac_step} with one
      shift for every input feature, wrapping like its accumulator.
    - The final stage is an {!Engine} (the LDA classifier).

    A pipeline owns one scratch batch per stage, allocated once at
    {!create}; {!run} on warm batches allocates nothing.

    Formats are explicit everywhere: a stage taking inputs in
    [Q(k_i).(f_i)] with tables in [Q(k_t).(f_t)] and producing
    [Q(k_o).(f_o)] shifts each product right by [f_i + f_t - f_o]
    (which must lie in [[0, 62]]). *)

type stage

val standardize :
  in_fmt:Fixedpoint.Qformat.t ->
  scale_fmt:Fixedpoint.Qformat.t ->
  out_fmt:Fixedpoint.Qformat.t ->
  means:float array ->
  inv_stds:float array ->
  stage
(** Tables are quantised saturating: [means] into [in_fmt] (so the
    subtraction is exact), [inv_stds] into [scale_fmt].
    @raise Invalid_argument on length mismatch or a product shift
    outside [[0, 62]]. *)

val project :
  in_fmt:Fixedpoint.Qformat.t ->
  mat_fmt:Fixedpoint.Qformat.t ->
  out_fmt:Fixedpoint.Qformat.t ->
  matrix:float array array ->
  stage
(** [matrix] rows are output components ([out_features × in_features]),
    quantised saturating into [mat_fmt].
    @raise Invalid_argument on an empty or ragged matrix or a product
    shift outside [[0, 62]]. *)

type t

val create :
  ?capacity:int -> stages:stage list -> Ldafp_core.Hetero_classifier.t -> t
(** Chain the stages in front of the model (a uniform classifier enters
    as [Hetero_classifier.of_uniform clf]).  Feature counts and formats
    must chain: each stage's input matches the previous stage's output,
    and the last output matches the model's feature format.  The final
    classifier consumes the staged batch directly (its input is already
    in the accumulator format — the model's own front-end scaling is
    {e not} applied inside the pipeline).
    @raise Invalid_argument on any mismatch. *)

val capacity : t -> int

val make_batch : t -> Batch.t
(** A fresh input batch in the first stage's input format and feature
    count (the classifier's, with no stages). *)

val run : t -> Batch.t -> Bytes.t -> unit
(** Stream the live columns of the input batch through every stage and
    the classifier, writing ['\001']/['\000'] per column.
    Allocation-free on warm batches.
    @raise Invalid_argument on shape/format mismatch or a short output
    buffer. *)

val reference_predict : t -> float array -> bool
(** Scalar lockstep reference: quantise one real vector into the input
    format (saturating) and walk the identical datapath in plain OCaml
    ints — the QCheck oracle for the batched kernels. *)
