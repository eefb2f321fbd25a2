(* Raw bindings to the C kernels in infer_stubs.c.  Both are [@@noalloc]:
   no allocation, no exceptions, no callbacks.  Shape and length
   validation is the caller's job (Engine / Stages). *)

type ba1 = Batch.ba1
type ba2 = Batch.ba2

external mac : ba2 -> ba1 -> ba2 -> ba2 -> int -> int -> unit
  = "ldafp_infer_mac_bytes" "ldafp_infer_mac"
[@@noalloc]
(* mac mat shifts x out len bits *)

external affine : ba1 -> ba1 -> ba2 -> ba2 -> int -> int -> int -> unit
  = "ldafp_infer_affine_bytes" "ldafp_infer_affine"
[@@noalloc]
(* affine mean inv x out len shift bits *)
