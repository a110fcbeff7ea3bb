/* Native hot loops of the approximate-DNN reproduction.
 *
 * Compiled on first use by repro.axnn.native.cext (cc -O3 -shared) and
 * loaded through ctypes, which releases the GIL for the duration of every
 * call.  Each function is the exact integer/float semantics of its NumPy
 * reference — see the bit-identity notes on each kernel; the property tests
 * in tests/test_native_kernels.py enforce them.
 *
 * Layout contract: every array argument is C-contiguous.  The Python wrapper
 * (cext.py) declares ndpointer argtypes with the C_CONTIGUOUS flag, so a
 * strided array can never reach these loops; the fused layer entry takes
 * raw pointers, and cext.bind_layer checks every member operand once when
 * it builds the member array and the code matrix and output on each call.
 */

#include <stdint.h>

/* Column-block width of the LUT loop: the sign/magnitude blocks
 * (K * NB bytes each) and the int64 accumulator row stay cache-resident
 * while the code row streams once per output row. */
#define LUT_MATMUL_NB 128

/* Lanes of one table row add: the table's output axis is padded to a
 * multiple of eight int32 columns, which -O3 keeps in two SSE2 registers at
 * the baseline x86-64 ISA (no -march needed). */
#define TABLE_MATMUL_LANES 8

/* The dequantize epilogue of an Ax layer, applied where a product loop
 * stores its integer result:
 *     out[m, n] = (acc[m, n] - zero_point * corr[n]) * alpha + bias[n]
 * with alpha = activation scale * weight scale and no bias term when bias
 * is NULL.  The subtraction is exact int64 arithmetic; the int64 -> double
 * conversion, the multiply and the add are each rounded once, in this
 * order, as NumPy's casting subtract / multiply / add ufuncs do
 * (cext.py compiles with -ffp-contract=off, so no multiply-add is fused),
 * which makes the float output bit-identical to the NumPy epilogue.
 * A NULL epilogue makes a loop store the raw int64 accumulator instead. */
typedef struct {
    int64_t zero_point;
    const int64_t *corr;   /* (n_dim,) zero-point correction */
    double alpha;
    const double *bias;    /* (n_dim,) or NULL */
    double *out;           /* (m_dim, n_dim) */
} repro_epilogue;

static inline void store_result(
    const repro_epilogue *ep, int64_t *acc_out, int64_t m, int64_t n,
    int64_t n_dim, int64_t acc)
{
    if (ep == 0) {
        acc_out[m * n_dim + n] = acc;
        return;
    }
    double value = (double)(acc - ep->zero_point * ep->corr[n]) * ep->alpha;
    if (ep->bias) value += ep->bias[n];
    ep->out[m * n_dim + n] = value;
}

/* The LUT loop:
 *     acc[m, n] = sum_k sign[k, n] * lut[codes[m, k] * lut_cols + mag[k, n]]
 *
 * All arithmetic is int64 accumulation of exact integer products, so the
 * result is bit-identical to the gather reference regardless of summation
 * order.  Operands are packed to 8 bits (codes/mag unsigned, sign in
 * {-1, 0, 1}) and the LUT to 16 or 32 bits by the caller — the "int8/int16
 * accumulation" tier: half to a quarter of the reference path's memory
 * traffic, cache-blocked over output columns.
 */
#define DEFINE_LUT_ROWS(SUFFIX, LUT_T)                                        \
static void lut_rows_##SUFFIX(                                                \
    const uint8_t *codes, const int8_t *sign, const uint8_t *mag,             \
    const LUT_T *lut, int64_t m_dim, int64_t k_dim, int64_t n_dim,            \
    int64_t lut_cols, int64_t *acc_out, const repro_epilogue *ep)             \
{                                                                             \
    for (int64_t n0 = 0; n0 < n_dim; n0 += LUT_MATMUL_NB) {                   \
        int64_t nb = n_dim - n0;                                              \
        if (nb > LUT_MATMUL_NB) nb = LUT_MATMUL_NB;                           \
        for (int64_t m = 0; m < m_dim; m++) {                                 \
            int64_t acc[LUT_MATMUL_NB];                                       \
            for (int64_t j = 0; j < nb; j++) acc[j] = 0;                      \
            const uint8_t *code_row = codes + m * k_dim;                      \
            for (int64_t k = 0; k < k_dim; k++) {                             \
                const LUT_T *lut_row = lut + (int64_t)code_row[k] * lut_cols; \
                const int8_t *sign_row = sign + k * n_dim + n0;               \
                const uint8_t *mag_row = mag + k * n_dim + n0;                \
                for (int64_t j = 0; j < nb; j++)                              \
                    acc[j] += (int64_t)sign_row[j]                            \
                            * (int64_t)lut_row[mag_row[j]];                   \
            }                                                                 \
            for (int64_t j = 0; j < nb; j++)                                  \
                store_result(ep, acc_out, m, n0 + j, n_dim, acc[j]);          \
        }                                                                     \
    }                                                                         \
}

DEFINE_LUT_ROWS(i16, int16_t)
DEFINE_LUT_ROWS(i32, int32_t)

/* The table loop:  acc[m, n] = sum_k table[k, codes[m, k], n]
 *
 * The weight-stationary form of the LUT product: the caller folds the
 * constant weights into the signed table
 *     table[k, c, n] = sign[k, n] * lut[c, mag[k, n]]
 * of shape (k_dim, codes_total, n_pad), n_pad = n_dim rounded up to the
 * lane count, zero in the padding.  One contiguous row add per (m, k) and
 * lane block replaces n_dim LUT gathers, sign loads and multiplies.  The
 * caller only builds the table when k_dim * max|lut| < 2**31, so no int32
 * partial sum can overflow and the integer result is exact in any order —
 * bit-identical to the gather reference.
 */
static void table_rows(
    const uint8_t *codes, const int32_t *table, int64_t m_dim, int64_t k_dim,
    int64_t n_dim, int64_t codes_total, int64_t n_pad, int64_t *acc_out,
    const repro_epilogue *ep)
{
    const int64_t k_stride = codes_total * n_pad;
    for (int64_t m = 0; m < m_dim; m++) {
        const uint8_t *code_row = codes + m * k_dim;
        for (int64_t n0 = 0; n0 < n_pad; n0 += TABLE_MATMUL_LANES) {
            int32_t acc[TABLE_MATMUL_LANES] = {0};
            const int32_t *block = table + n0;
            for (int64_t k = 0; k < k_dim; k++) {
                const int32_t *row =
                    block + k * k_stride + (int64_t)code_row[k] * n_pad;
                for (int j = 0; j < TABLE_MATMUL_LANES; j++) acc[j] += row[j];
            }
            int64_t nb = n_dim - n0;
            if (nb > TABLE_MATMUL_LANES) nb = TABLE_MATMUL_LANES;
            for (int64_t j = 0; j < nb; j++)
                store_result(ep, acc_out, m, n0 + j, n_dim, acc[j]);
        }
    }
}

/* The int64-accumulator entry points: one kernel's product, no epilogue. */
void repro_lut_matmul_i16(
    const uint8_t *codes, const int8_t *sign, const uint8_t *mag,
    const int16_t *lut, int64_t m_dim, int64_t k_dim, int64_t n_dim,
    int64_t lut_cols, int64_t *out)
{
    lut_rows_i16(codes, sign, mag, lut, m_dim, k_dim, n_dim, lut_cols, out, 0);
}

void repro_lut_matmul_i32(
    const uint8_t *codes, const int8_t *sign, const uint8_t *mag,
    const int32_t *lut, int64_t m_dim, int64_t k_dim, int64_t n_dim,
    int64_t lut_cols, int64_t *out)
{
    lut_rows_i32(codes, sign, mag, lut, m_dim, k_dim, n_dim, lut_cols, out, 0);
}

void repro_table_matmul_i32(
    const uint8_t *codes, const int32_t *table, int64_t m_dim, int64_t k_dim,
    int64_t n_dim, int64_t codes_total, int64_t n_pad, int64_t *out)
{
    table_rows(codes, table, m_dim, k_dim, n_dim, codes_total, n_pad, out, 0);
}

/* One victim of a fused layer call: its bound product operands (the signed
 * table, or the LUT loop's packed operands when table is NULL) and its
 * dequantize epilogue constants.  Mirrored field for field by
 * cext.LayerMember; every pointer is checked and kept alive on the Python
 * side when the member array is built. */
typedef struct {
    int64_t slot;            /* row block of the codes (when stacked) and out */
    const int32_t *table;    /* (k_dim, codes_total, n_pad), or NULL */
    int64_t codes_total;
    int64_t n_pad;
    const int8_t *sign;      /* (k_dim, n_dim), LUT loop only */
    const uint8_t *mag;      /* (k_dim, n_dim), LUT loop only */
    const void *lut;         /* (lut_cols, lut_cols) int16 or int32 */
    int64_t lut_cols;
    int64_t lut_bytes;       /* 2 or 4: the LUT's element width */
    int64_t zero_point;
    const int64_t *corr;     /* (n_dim,) */
    double alpha;
    const double *bias;      /* (n_dim,) or NULL */
} repro_layer_member;

/* One Ax layer for every native member of a victim group, in one call:
 * member i reads the code rows [slot * rows, (slot + 1) * rows) when
 * codes_stacked, else all `rows` code rows, and writes its dequantized
 * output to rows [slot * rows, (slot + 1) * rows) of the group's stacked
 * float64 output (rows x n_dim per block). */
void repro_layer_f64(
    const uint8_t *codes, int64_t rows, int64_t k_dim, int64_t n_dim,
    int64_t codes_stacked, int64_t n_members,
    const repro_layer_member *members, double *out)
{
    for (int64_t i = 0; i < n_members; i++) {
        const repro_layer_member *mb = members + i;
        const uint8_t *member_codes =
            codes + (codes_stacked ? mb->slot * rows * k_dim : 0);
        repro_epilogue ep = {mb->zero_point, mb->corr, mb->alpha, mb->bias,
                             out + mb->slot * rows * n_dim};
        if (mb->table)
            table_rows(member_codes, mb->table, rows, k_dim, n_dim,
                       mb->codes_total, mb->n_pad, 0, &ep);
        else if (mb->lut_bytes == 2)
            lut_rows_i16(member_codes, mb->sign, mb->mag,
                         (const int16_t *)mb->lut, rows, k_dim, n_dim,
                         mb->lut_cols, 0, &ep);
        else
            lut_rows_i32(member_codes, mb->sign, mb->mag,
                         (const int32_t *)mb->lut, rows, k_dim, n_dim,
                         mb->lut_cols, 0, &ep);
    }
}

/* The col2im scatter-add: fold an im2col patch matrix
 * cols (batch, out_h, out_w, kh*kw*channels) back into the zero-initialised
 * padded image out (batch, padded_h, padded_w, channels).
 *
 * Formulated per padded image row (one pass over the rows instead of the
 * reference's kh*kw strided read-modify-write passes over the image).
 * Bit-identity with the NumPy loop needs only the *per-element* addition
 * order to match: the reference adds each element's contributions in
 * ascending (i, j) kernel offset order, and for a fixed output element the
 * i / j loops below visit its contributions in exactly that order.  The
 * innermost loop walks the out_w patch columns of one (i, j) offset, so it
 * carries no division by the stride.  Single-channel images (LeNet's input)
 * get a loop without the channel level: on a 60x28x28x1 image with a 5x5
 * kernel it takes 1.0 ms against 2.6-2.8 ms for the general loop (gcc -O3,
 * 2-core x86_64 VM, 15 alternating pairs, ratio median 2.6, IQR 2.6-2.7).
 */
void repro_col2im_f64(
    const double *cols, int64_t batch, int64_t out_h, int64_t out_w,
    int64_t kh, int64_t kw, int64_t channels, int64_t stride,
    int64_t padded_h, int64_t padded_w, double *out)
{
    const int64_t patch = kh * kw * channels;
    const int64_t step = stride * channels;
    for (int64_t b = 0; b < batch; b++) {
        const double *cols_b = cols + b * out_h * out_w * patch;
        double *out_b = out + b * padded_h * padded_w * channels;
        for (int64_t hp = 0; hp < padded_h; hp++) {
            double *out_row = out_b + hp * padded_w * channels;
            for (int64_t i = 0; i < kh; i++) {
                int64_t oh_num = hp - i;
                if (oh_num < 0 || oh_num % stride) continue;
                int64_t oh = oh_num / stride;
                if (oh >= out_h) continue;
                const double *cols_row = cols_b + oh * out_w * patch;
                for (int64_t j = 0; j < kw; j++) {
                    const double *src = cols_row + (i * kw + j) * channels;
                    double *dst = out_row + j * channels;
                    if (channels == 1) {
                        for (int64_t ow = 0; ow < out_w; ow++)
                            dst[ow * stride] += src[ow * patch];
                        continue;
                    }
                    for (int64_t ow = 0; ow < out_w; ow++) {
                        for (int64_t c = 0; c < channels; c++)
                            dst[ow * step + c] += src[ow * patch + c];
                    }
                }
            }
        }
    }
}

/* The im2col gather: copy every convolution patch of the padded image
 * x (batch, padded_h, padded_w, channels) into
 * cols (batch, out_h, out_w, kh*kw*channels), last axis ordered kernel row,
 * kernel column, channel.
 *
 * In NHWC one kernel row of a patch is a contiguous run of kw*channels
 * values in the image, and it lands contiguously in the patch row, so the
 * gather is one run copy per (b, oh, ow, i).  A pure copy — bit-identical to
 * the NumPy strided copy by construction.  Float images (the float layers)
 * and uint8 code images (the Ax layers' activation codes) share the loop.
 */
#define DEFINE_IM2COL(SUFFIX, T)                                              \
void repro_im2col_##SUFFIX(                                                   \
    const T *x, int64_t batch, int64_t padded_h, int64_t padded_w,            \
    int64_t channels, int64_t kh, int64_t kw, int64_t stride,                 \
    int64_t out_h, int64_t out_w, T *cols)                                    \
{                                                                             \
    const int64_t run = kw * channels;                                        \
    const int64_t image_row = padded_w * channels;                            \
    for (int64_t b = 0; b < batch; b++) {                                     \
        const T *x_b = x + b * padded_h * image_row;                          \
        for (int64_t oh = 0; oh < out_h; oh++) {                              \
            const T *x_rows = x_b + oh * stride * image_row;                  \
            for (int64_t ow = 0; ow < out_w; ow++) {                          \
                const T *src = x_rows + ow * stride * channels;               \
                for (int64_t i = 0; i < kh; i++) {                            \
                    const T *row = src + i * image_row;                       \
                    for (int64_t t = 0; t < run; t++) cols[t] = row[t];       \
                    cols += run;                                              \
                }                                                             \
            }                                                                 \
        }                                                                     \
    }                                                                         \
}

DEFINE_IM2COL(f64, double)
DEFINE_IM2COL(u8, uint8_t)
