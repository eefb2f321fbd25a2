(** Fixed-point classifier with per-weight word lengths.

    The paper (§3) fixes one format [QK.F] for every operation and notes:
    "In practice, it is possible to further optimize the word length for
    each individual operation. For instance, different elements w_m of
    the weight vector can be assigned with different word lengths.
    However ... the problem of word length optimization should be
    considered as a separate topic for our future research."

    This module implements that datapath: each weight w_m is stored in
    its own [QK_m.F_m]; features and the accumulator stay in one base
    format.  Each multiplier is then only [WL_m × WL_x] — on a serial
    datapath this shows up as narrower operand registers and a smaller
    ROM; on a parallel one as smaller multipliers.  Products are computed
    exactly in raw integer arithmetic and rounded once into the
    accumulator format, which wraps as usual.  See {!Bit_alloc} for the
    algorithm that chooses the per-weight formats. *)

type t = private {
  w_raws : int array;
  w_fmts : Fixedpoint.Qformat.t array;
  acc_fmt : Fixedpoint.Qformat.t;  (** feature + accumulator format *)
  threshold : Fixedpoint.Fx.t;  (** in [acc_fmt] *)
  scaling : Scaling.t;
  polarity : bool;
}

val create :
  ?polarity:bool ->
  acc_fmt:Fixedpoint.Qformat.t ->
  formats:Fixedpoint.Qformat.t array ->
  weights:Linalg.Vec.t ->
  threshold:float ->
  scaling:Scaling.t ->
  unit ->
  t
(** Weights are quantised (saturating) into their per-element formats.
    @raise Invalid_argument on length mismatches. *)

val of_uniform : Fixed_classifier.t -> t
(** Embed a uniform-format classifier (identical behaviour). *)

val n_features : t -> int
val weights : t -> Linalg.Vec.t
val predict : t -> Linalg.Vec.t -> bool
val project : t -> Linalg.Vec.t -> Fixedpoint.Fx.t
(** Wrapped MAC output in the accumulator format. *)

val predict_quantized : t -> int array -> bool
(** {!predict} from raw codes already quantised into [acc_fmt]: one
    {!Fixedpoint.Fx_vector.mac_step} per weight, shifted by that
    weight's fractional bits. *)

val weight_bits : t -> int array
(** Word length of each stored weight. *)

val total_weight_bits : t -> int
(** ROM size in bits — the paper's storage cost. *)

val multiplier_cost : t -> float
(** Σ_m WL_m × WL_x — array-multiplier partial-product count, the
    dominant datapath power term; compare against
    [M × WL_acc²] for the uniform design. *)

val pp : Format.formatter -> t -> unit
