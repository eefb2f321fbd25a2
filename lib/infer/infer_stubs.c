/* Batched fixed-point inference kernels for Infer.Engine / Infer.Stages.
 *
 * Two kernels: the wrapping MAC (the classifier's projection and the
 * Project stage) and the saturating affine Standardize stage.  Both
 * reproduce the scalar OCaml datapath bit-for-bit:
 *
 *   - products wrap modulo 2^63 (OCaml native-int multiplication), so a
 *     product is computed in uint64 (wraps mod 2^64) and then folded
 *     into the sign-extended 63-bit range;
 *   - the fractional-bit shift is Rounding.shift_right_rounded Nearest
 *     (round half to even), expressed with the same q/rem/half
 *     decomposition as the OCaml code; the OCaml side keeps every shift
 *     in [0, 62];
 *   - the MAC accumulator wraps into the target word length after every
 *     add (Fx_vector.mac_step, via Qformat.wrap_raw: mask to wl bits,
 *     then sign-extend).
 *
 * Both kernels are [@@noalloc]: they never allocate, raise, or call back
 * into the runtime, and operate on untagged Bigarray int data
 * (Caml_ba_data_val) plus immediate int arguments (Long_val).  Batches
 * are laid out feature-major — Array2 of dims (features, capacity) in C
 * layout — so the per-feature inner loop over batch columns is
 * contiguous, stride-1, and vectorizable.  Shapes and batch lengths are
 * validated on the OCaml side before the call. */

#include <stdint.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

/* Fold a 64-bit value into OCaml's 63-bit native-int range (wrap modulo
 * 2^63, sign-extend).  Shifting into the sign bit is done unsigned to
 * avoid undefined behaviour; the final >> is arithmetic on a negative
 * int64, which gcc/clang define as sign-extending. */
static inline int64_t wrap63(int64_t p)
{
  return (int64_t)((uint64_t)p << 1) >> 1;
}

/* a * b with OCaml native-int semantics: true product modulo 2^63. */
static inline int64_t mul_wrap63(int64_t a, int64_t b)
{
  return wrap63((int64_t)((uint64_t)a * (uint64_t)b));
}

/* Rounding.shift_right_rounded Nearest: round half to even. */
static inline int64_t shr_round_even(int64_t r, intnat n)
{
  int64_t q, rem, half;
  if (n == 0) return r;
  q = r >> n;
  rem = r - (int64_t)((uint64_t)q << n);
  half = (int64_t)1 << (n - 1);
  if (rem > half) return q + 1;
  if (rem < half) return q;
  return (q & 1) ? q + 1 : q;
}

/* Qformat.wrap_raw: reduce modulo 2^bits, sign-extend. */
static inline int64_t wrap_bits(int64_t r, intnat bits)
{
  uint64_t m = (uint64_t)1 << bits;
  int64_t w = (int64_t)((uint64_t)r & (m - 1));
  if (w >= (int64_t)(m >> 1)) w -= (int64_t)m;
  return w;
}

/* Qformat.saturate_raw. */
static inline int64_t sat_bits(int64_t r, intnat bits)
{
  int64_t hi = ((int64_t)1 << (bits - 1)) - 1;
  int64_t lo = -((int64_t)1 << (bits - 1));
  return r < lo ? lo : (r > hi ? hi : r);
}

/* Standardize stage: out[j][c] = sat((x[j][c] - mean[j]) * inv[j] >>r
 * shift).  The subtraction is exact (both operands share the input
 * format, so the difference fits 63 bits); the product is in units
 * 2^-(f_in + f_scale) and is shifted back to the output format with
 * round-half-even, then SATURATED (front-end semantics, like the
 * quantising ADC) into the output word length. */
CAMLprim value ldafp_infer_affine(value vmean, value vinv, value vx,
                                  value vout, value vlen, value vshift,
                                  value vbits)
{
  const intnat *mean = (const intnat *)Caml_ba_data_val(vmean);
  const intnat *inv = (const intnat *)Caml_ba_data_val(vinv);
  const intnat *x = (const intnat *)Caml_ba_data_val(vx);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat features = Caml_ba_array_val(vx)->dim[0];
  intnat cap_in = Caml_ba_array_val(vx)->dim[1];
  intnat cap_out = Caml_ba_array_val(vout)->dim[1];
  intnat len = Long_val(vlen);
  intnat shift = Long_val(vshift);
  intnat bits = Long_val(vbits);
  intnat j, c;

  for (j = 0; j < features; j++) {
    int64_t mj = (int64_t)mean[j];
    int64_t ij = (int64_t)inv[j];
    const intnat *row = x + j * cap_in;
    intnat *orow = out + j * cap_out;
    for (c = 0; c < len; c++) {
      int64_t d = (int64_t)row[c] - mj;
      int64_t p = mul_wrap63(d, ij);
      p = shr_round_even(p, shift);
      orow[c] = (intnat)sat_bits(p, bits);
    }
  }
  return Val_unit;
}

CAMLprim value ldafp_infer_affine_bytes(value *argv, int argn)
{
  (void)argn;
  return ldafp_infer_affine(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], argv[6]);
}

/* The MAC (Fx_vector.mac_step over a matrix):
 *   out[o][c] = MAC_j mat[o][j] * x[j][c], the product of input feature
 *   j shifted right by shifts[j], the sum wrapped into bits.
 *   mat    : Array2 (out_features, in_features)  raw table codes
 *   shifts : Array1 (in_features)                product shifts
 *   x      : Array2 (in_features, capacity)      raw input codes
 *   out    : Array2 (out_features, capacity)     raw outputs
 * The classifier is one output row whose shifts are the weights'
 * fractional bits; a Project stage has a constant shift table.  The
 * rounded product needs no wrap of its own before the add: wrapping is
 * reduction mod 2^bits, and the int64 sum of a 63-bit product and a
 * <= 62-bit accumulator cannot overflow. */
CAMLprim value ldafp_infer_mac(value vmat, value vshifts, value vx,
                               value vout, value vlen, value vbits)
{
  const intnat *mat = (const intnat *)Caml_ba_data_val(vmat);
  const intnat *shifts = (const intnat *)Caml_ba_data_val(vshifts);
  const intnat *x = (const intnat *)Caml_ba_data_val(vx);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat out_features = Caml_ba_array_val(vmat)->dim[0];
  intnat in_features = Caml_ba_array_val(vmat)->dim[1];
  intnat cap_in = Caml_ba_array_val(vx)->dim[1];
  intnat cap_out = Caml_ba_array_val(vout)->dim[1];
  intnat len = Long_val(vlen);
  intnat bits = Long_val(vbits);
  intnat o, j, c;

  for (o = 0; o < out_features; o++) {
    const intnat *mrow = mat + o * in_features;
    intnat *orow = out + o * cap_out;
    for (c = 0; c < len; c++) orow[c] = 0;
    for (j = 0; j < in_features; j++) {
      int64_t mj = (int64_t)mrow[j];
      intnat sj = shifts[j];
      const intnat *row = x + j * cap_in;
      for (c = 0; c < len; c++) {
        int64_t p = shr_round_even(mul_wrap63(mj, (int64_t)row[c]), sj);
        orow[c] = (intnat)wrap_bits((int64_t)orow[c] + p, bits);
      }
    }
  }
  return Val_unit;
}

CAMLprim value ldafp_infer_mac_bytes(value *argv, int argn)
{
  (void)argn;
  return ldafp_infer_mac(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5]);
}
