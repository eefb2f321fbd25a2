(** Fixed-point number formats.

    A format [QK.F] (two's complement) has [K] integer bits — including the
    sign bit — and [F] fractional bits, for a total word length of [K + F]
    bits.  A word with raw integer value [r] represents the real number
    [r * 2^(-F)], so the representable range is
    [[-2^(K-1), 2^(K-1) - 2^(-F)]] with a uniform grid step ("ulp") of
    [2^(-F)].  This is the format assumed throughout the LDA-FP paper
    (Figure 3). *)

type t = private {
  k : int;  (** integer bits, including the sign bit; [k >= 1] *)
  f : int;  (** fractional bits; [f >= 0] *)
}

val make : k:int -> f:int -> t
(** [make ~k ~f] builds a format.

    @raise Invalid_argument if [k < 1], [f < 0], or [k + f > 62]
    (raw values must fit in an OCaml [int] with headroom for products). *)

val word_length : t -> int
(** Total number of bits, [k + f]. *)

val ulp : t -> float
(** Grid step [2^(-f)] — the value of one least-significant bit. *)

val min_value : t -> float
(** Smallest representable value, [-2^(k-1)]. *)

val max_value : t -> float
(** Largest representable value, [2^(k-1) - 2^(-f)]. *)

val min_raw : t -> int
(** Smallest raw (integer) code, [-2^(k+f-1)]. *)

val max_raw : t -> int
(** Largest raw code, [2^(k+f-1) - 1]. *)

val cardinality : t -> int
(** Number of representable values, [2^(k+f)]. *)

val in_range : t -> float -> bool
(** [in_range fmt x] is [true] iff [min_value fmt <= x <= max_value fmt]. *)

val raw_of_value_exn : t -> float -> int
(** Raw code of a value that lies exactly on the grid.

    @raise Invalid_argument if the value is off-grid or out of range. *)

val value_of_raw : t -> int -> float
(** Real value of a raw code.  The code is wrapped into the representable
    raw range first (two's-complement semantics). *)

val wrap_raw : t -> int -> int
(** Two's-complement wrap of an arbitrary integer into
    [[min_raw fmt, max_raw fmt]].  This models overflow of a [k+f]-bit
    register. *)

val saturate_raw : t -> int -> int
(** Clamp an arbitrary integer into [[min_raw fmt, max_raw fmt]]. *)

val floor_to_grid : t -> float -> float
(** Largest grid value [<= x] (not range-clamped). *)

val ceil_to_grid : t -> float -> float
(** Smallest grid value [>= x] (not range-clamped). *)

val nearest_on_grid : t -> float -> float
(** Nearest grid value (ties toward even raw code; not range-clamped). *)

val all_on_grid : t -> tol:float -> float array -> bool
(** Every value is {!in_range} and within [tol] of its {!nearest_on_grid}
    point.  Allocation-free. *)

val clamp : t -> float -> float
(** Clamp a real number into [[min_value, max_value]] (no rounding). *)

val values : t -> float array
(** All representable values in increasing order.

    @raise Invalid_argument if the word length exceeds 24 bits (the
    enumeration would not fit in memory sensibly). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** Prints as ["Q3.5"]. *)

val to_string : t -> string
