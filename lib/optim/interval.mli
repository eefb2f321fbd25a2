(** Closed real intervals [[lo, hi]].

    Used for the auxiliary branch-and-bound variable [t = (μ_A−μ_B)ᵀw]
    (paper eq. 22) and as the continuous relaxation of weight boxes.  The
    bound constants of eqs. (26)–(27) — [sup t²] and [inf t²] over an
    interval — live here. *)

type t = private { lo : float; hi : float }

val make : lo:float -> hi:float -> t
(** @raise Invalid_argument if [lo > hi] or either bound is NaN. *)

val point : float -> t
val lo : t -> float
val hi : t -> float
val width : t -> float
val mid : t -> float
val mem : t -> float -> bool
val clamp : t -> float -> float

val sup_sq : t -> float
(** [sup { t² : t ∈ iv }] — eq. (26): the larger endpoint squared. *)

val inf_sq : t -> float
(** [inf { t² : t ∈ iv }] — eq. (27): zero if the interval straddles 0,
    otherwise the smaller endpoint-magnitude squared. *)

val split : ?at:float -> t -> t * t
(** Split at [at] (default the midpoint), clamped strictly inside. *)

val intersect : t -> t -> t option
val scale : float -> t -> t
val shift : float -> t -> t
val contains_zero : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
