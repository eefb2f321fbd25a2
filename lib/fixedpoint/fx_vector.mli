(** Fixed-point vectors and the classifier MAC datapath.

    All elements of a vector share one format.  The central operation is
    {!dot}, which models the on-chip multiply-accumulate loop of the LDA-FP
    classifier: each product is rounded back into [QK.F] and the running
    sum is accumulated in a [QK.F] register with two's-complement wrapping.
    Per the paper's §3 observation, intermediate wrap-around is harmless as
    long as the {e final} sum is representable — see {!dot_reference} and
    the property tests. *)

type t

val of_floats :
  ?mode:Rounding.mode -> ?ov:Rounding.overflow -> Qformat.t -> float array -> t
(** Quantise every component. *)

val of_fx : Fx.t array -> t
(** @raise Invalid_argument on an empty array or mixed formats. *)

val to_floats : t -> float array
val to_fx : t -> Fx.t array
val length : t -> int
val format : t -> Qformat.t
val get : t -> int -> Fx.t

val mac_step : Qformat.t -> shift:int -> int -> int -> int -> int
(** [mac_step acc_fmt ~shift acc w x] is one raw-code step of the
    classifier's multiply-accumulate, [wrap (acc + round (w * x / 2^shift))]:
    the product rounded half to even, the sum wrapped into [acc_fmt]
    ({!Qformat.wrap_raw}).  [shift] is [f] for a uniform [QK.F] datapath,
    the weight's [f] for per-weight formats.  It is the one scalar
    definition of the MAC: {!dot}, the heterogeneous classifier and the
    inference stages step through it, and the C kernel is checked
    against it. *)

val dot : t -> t -> Fx.t
(** Hardware MAC: {!mac_step} over the components with [shift = F].
    This is the datapath whose overflow behaviour the LDA-FP constraints
    (18) and (20) are designed to keep safe.
    @raise Invalid_argument on a format or length mismatch. *)

val dot_reference : t -> t -> float
(** Exact real-valued dot product of the quantised components (no product
    rounding, no wrapping) — the value constraints (18)/(20) reason about. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
