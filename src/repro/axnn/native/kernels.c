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
#include <stdlib.h>
#include <string.h>

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

/* Bytes of gathered code factors per dgemm call of the factor product. */
#define FACTOR_CHUNK_BYTES (1 << 20)

/* BLAS dgemm (Fortran calling convention, column-major), bound once by
 * repro_set_dgemm to the process's SciPy BLAS (cext.enable_blas); NULL
 * until then, and a factor product fails instead of running. */
typedef void (*repro_dgemm_fn)(
    const char *transa, const char *transb, const int *m, const int *n,
    const int *k, const double *alpha, const double *a, const int *lda,
    const double *b, const int *ldb, const double *beta, double *c,
    const int *ldc);
static repro_dgemm_fn repro_dgemm = 0;

void repro_set_dgemm(void *fn) { repro_dgemm = (repro_dgemm_fn)fn; }

/* The factor product:
 *     acc[m, n] = sum_k sum_i f[codes[m, k], i] * g[k * rank + i, n]
 *
 * over the float64 factor operands a low-rank kernel already holds: the
 * (codes_total, rank) code factors f of the LUT's exact integer
 * factorisation LUT = sum_i outer(f_i, g_i), and the (k_dim * rank, n_dim)
 * interleaved weight factors g[k * rank + i, n] = sign[k, n] * g_i[mag[k, n]]
 * (PerCodeBLASKernel).  f == NULL is the exact multiplier: rank 1 with
 * f[c] = c, and g the signed weights (ExactBLASKernel).  The gathered code
 * factors F[m, k * rank + i] = f[codes[m, k], i] go through one dgemm, as
 * the kernels' own matmul does through NumPy.  Every value is an integer
 * and the owning kernel checked at construction that every partial sum
 * stays below 2**52, so each float multiply and add is exact and the
 * accumulator equals the kernel's rounded BLAS product bit for bit, in any
 * summation order.  Rows are independent, so the gather and the dgemm run
 * in chunks of at most FACTOR_CHUNK_BYTES of gathered factors: the scratch
 * stays small whatever the batch.  Returns -1 when a buffer cannot be
 * allocated, -2 when no dgemm is bound or a dimension exceeds its int. */
static int factor_rows(
    const uint8_t *codes, const double *f, const double *g, int64_t rank,
    int64_t m_dim, int64_t k_dim, int64_t n_dim, const repro_epilogue *ep)
{
    const int64_t depth = k_dim * rank;
    if (!repro_dgemm || n_dim > INT32_MAX || depth > INT32_MAX) return -2;
    int64_t chunk = FACTOR_CHUNK_BYTES / (int64_t)sizeof(double) / (depth + 1);
    if (chunk < 1) chunk = 1;
    if (chunk > m_dim) chunk = m_dim;
    double *gathered = malloc((size_t)(chunk * depth + 1) * sizeof(double));
    double *acc = malloc((size_t)(chunk * n_dim + 1) * sizeof(double));
    if (!gathered || !acc) {
        free(gathered);
        free(acc);
        return -1;
    }
    for (int64_t m0 = 0; m0 < m_dim; m0 += chunk) {
        const int64_t rows = m_dim - m0 < chunk ? m_dim - m0 : chunk;
        for (int64_t m = 0; m < rows; m++) {
            const uint8_t *code_row = codes + (m0 + m) * k_dim;
            double *row = gathered + m * depth;
            if (!f) {
                for (int64_t k = 0; k < k_dim; k++) row[k] = (double)code_row[k];
                continue;
            }
            for (int64_t k = 0; k < k_dim; k++) {
                const double *factors = f + (int64_t)code_row[k] * rank;
                for (int64_t i = 0; i < rank; i++) row[k * rank + i] = factors[i];
            }
        }
        if (depth == 0) {
            for (int64_t t = 0; t < rows * n_dim; t++) acc[t] = 0.0;
        } else if (n_dim > 0) {
            /* row-major acc = F @ g is column-major acc^T = g^T @ F^T */
            const int m = (int)n_dim, n = (int)rows, k = (int)depth;
            const double one = 1.0, zero = 0.0;
            repro_dgemm("N", "N", &m, &n, &k, &one, g, &m, gathered, &k, &zero,
                        acc, &m);
        }
        for (int64_t m = 0; m < rows; m++)
            for (int64_t n = 0; n < n_dim; n++)
                store_result(ep, 0, m0 + m, n, n_dim,
                             (int64_t)acc[m * n_dim + n]);
    }
    free(gathered);
    free(acc);
    return 0;
}

/* One victim of a fused layer call: its bound product operands and its
 * dequantize epilogue constants.  The product runs on the signed table
 * when table is set, else on the low-rank factors when weight_factors is
 * set, else in the LUT loop.  Mirrored field for field by
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
    const double *code_factors;    /* (codes_total, rank), or NULL = identity */
    const double *weight_factors;  /* (k_dim * rank, n_dim), or NULL */
    int64_t rank;
    int64_t zero_point;
    const int64_t *corr;     /* (n_dim,) */
    double alpha;
    const double *bias;      /* (n_dim,) or NULL */
} repro_layer_member;

/* Member mb's product of `rows` code rows, stored through its epilogue
 * into out (rows x n_dim).  Returns 0, or factor_rows's error code. */
static int member_product(
    const repro_layer_member *mb, const uint8_t *codes, int64_t rows,
    int64_t k_dim, int64_t n_dim, double *out)
{
    repro_epilogue ep = {mb->zero_point, mb->corr, mb->alpha, mb->bias, out};
    if (mb->weight_factors)
        return factor_rows(codes, mb->code_factors, mb->weight_factors,
                           mb->rank, rows, k_dim, n_dim, &ep);
    if (mb->table)
        table_rows(codes, mb->table, rows, k_dim, n_dim, mb->codes_total,
                   mb->n_pad, 0, &ep);
    else if (mb->lut_bytes == 2)
        lut_rows_i16(codes, mb->sign, mb->mag, (const int16_t *)mb->lut,
                     rows, k_dim, n_dim, mb->lut_cols, 0, &ep);
    else
        lut_rows_i32(codes, mb->sign, mb->mag, (const int32_t *)mb->lut,
                     rows, k_dim, n_dim, mb->lut_cols, 0, &ep);
    return 0;
}

/* One Ax layer for every member of a victim group, in one call:
 * member i reads the code rows [slot * rows, (slot + 1) * rows) when
 * codes_stacked, else all `rows` code rows, and writes its dequantized
 * output to rows [slot * rows, (slot + 1) * rows) of the group's stacked
 * float64 output (rows x n_dim per block).  Returns 0, or the first
 * failing member's error code (factor_rows). */
int repro_layer_f64(
    const uint8_t *codes, int64_t rows, int64_t k_dim, int64_t n_dim,
    int64_t codes_stacked, int64_t n_members,
    const repro_layer_member *members, double *out)
{
    for (int64_t i = 0; i < n_members; i++) {
        const repro_layer_member *mb = members + i;
        const int status = member_product(
            mb, codes + (codes_stacked ? mb->slot * rows * k_dim : 0), rows,
            k_dim, n_dim, out + mb->slot * rows * n_dim);
        if (status) return status;
    }
    return 0;
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

/* The compiled panel pass: a VictimPanel group's whole network in one call.
 *
 * The program is the group's layer plan, bound once when the panel is
 * built (repro.axnn.panel).  The input batch is shared by every member
 * until the first compute op; from there the activations are stacked, one
 * block of `batch` samples per member, member-major.  Each op reads the
 * current activation and writes the next into one of two float64 buffers
 * allocated here, so the pass makes one allocation per buffer and no
 * Python or NumPy call.  Every float operation is the one each member's
 * own AxModel.forward performs, in the same order, so the output bits are
 * that forward's:
 *
 *   PANEL_CONV   quantize every input value (divide by the scale, round half
 *                to even, add the zero point, clip: AffineQuantization),
 *                place the codes in a code image padded with the zero point,
 *                gather the patches (repro_im2col_u8), and run every
 *                member's product and epilogue (member_product);
 *   PANEL_DENSE  quantize, then every member's product and epilogue;
 *   PANEL_RELU   x > 0 ? x : +0.0, np.maximum(x, 0.0) for non-NaN input;
 *   PANEL_AVGPOOL  a pool_size <= 2 average: the +0.0-seeded sum of the
 *                window offsets in (i, j) order, then the divide
 *                (AvgPool2D.forward).
 *
 * Flatten and inference-mode dropout leave the C-contiguous activation as
 * it is and have no op.  The caller rejects non-finite input, so no code
 * depends on how a NaN converts. */
enum { PANEL_CONV = 1, PANEL_DENSE = 2, PANEL_RELU = 3, PANEL_AVGPOOL = 4 };

typedef struct {
    int64_t kind;
    int64_t in_blocks;     /* 1 (input shared by every member) or n_members */
    int64_t in_h, in_w, in_c;      /* NHWC of one input sample (dense: 1, 1, K) */
    int64_t out_h, out_w;          /* conv and pool output size */
    int64_t window, stride, pad;   /* conv kernel or pool size; stride; padding */
    double scale;                  /* activation scheme of a conv or dense op */
    int64_t zero_point;
    int64_t qmax;
    int64_t k_dim, n_dim;
    int64_t n_members;
    const repro_layer_member *members;
} repro_panel_op;

/* AffineQuantization.quantize_packed of one value: q = x / scale, then
 * np.rint (round half to even: adding and subtracting 1.5 * 2**52 rounds
 * any |q| < 2**51 to the nearest integer, ties to even, in the default
 * rounding mode; a larger |q| clips to 0 or qmax however it rounds),
 * + zero_point, clip to [0, qmax].  The result is an integer, so the uint8
 * cast is exact. */
static inline uint8_t quantize_code(double x, double scale, double zero_point,
                                    double qmax)
{
    double q = x / scale;
    if (q < 0x1p51 && q > -0x1p51) q = (q + 0x1.8p52) - 0x1.8p52;
    q += zero_point;
    if (q < 0.0) q = 0.0;
    if (q > qmax) q = qmax;
    return (uint8_t)q;
}

/* Per-sample sizes of an op's output (float64 values), its code matrix
 * and its padded code image (bytes). */
static void panel_op_sizes(const repro_panel_op *op, int64_t *floats,
                           int64_t *codes, int64_t *image)
{
    *codes = 0;
    *image = 0;
    switch (op->kind) {
    case PANEL_CONV:
        *image = op->in_blocks * (op->in_h + 2 * op->pad)
                 * (op->in_w + 2 * op->pad) * op->in_c;
        *codes = op->in_blocks * op->out_h * op->out_w * op->k_dim;
        *floats = op->n_members * op->out_h * op->out_w * op->n_dim;
        break;
    case PANEL_DENSE:
        *codes = op->in_blocks * op->k_dim;
        *floats = op->n_members * op->n_dim;
        break;
    case PANEL_AVGPOOL:
        *floats = op->in_blocks * op->out_h * op->out_w * op->in_c;
        break;
    default: /* PANEL_RELU */
        *floats = op->in_blocks * op->in_h * op->in_w * op->in_c;
    }
}

static int panel_products(const repro_panel_op *op, const uint8_t *codes,
                          int64_t rows, double *out)
{
    return repro_layer_f64(codes, rows, op->k_dim, op->n_dim,
                           op->in_blocks > 1, op->n_members, op->members, out);
}

static int panel_conv(const repro_panel_op *op, const double *x,
                       int64_t batch, uint8_t *image, uint8_t *codes,
                       double *out)
{
    const int64_t samples = op->in_blocks * batch;
    const int64_t padded_h = op->in_h + 2 * op->pad;
    const int64_t padded_w = op->in_w + 2 * op->pad;
    const int64_t row = op->in_w * op->in_c;
    const double scale = op->scale, zero_point = (double)op->zero_point;
    const double qmax = (double)op->qmax;
    const uint8_t pad_code = (uint8_t)op->zero_point;
    for (int64_t b = 0; b < samples; b++) {
        uint8_t *image_b = image + b * padded_h * padded_w * op->in_c;
        const double *x_b = x + b * op->in_h * row;
        for (int64_t h = 0; h < padded_h; h++) {
            uint8_t *dst = image_b + h * padded_w * op->in_c;
            const int64_t inside = h >= op->pad && h < op->pad + op->in_h;
            const int64_t left = inside ? op->pad * op->in_c : padded_w * op->in_c;
            for (int64_t t = 0; t < left; t++) dst[t] = pad_code;
            if (!inside) continue;
            const double *src = x_b + (h - op->pad) * row;
            for (int64_t t = 0; t < row; t++)
                dst[left + t] = quantize_code(src[t], scale, zero_point, qmax);
            for (int64_t t = left + row; t < padded_w * op->in_c; t++)
                dst[t] = pad_code;
        }
    }
    repro_im2col_u8(image, samples, padded_h, padded_w, op->in_c, op->window,
                    op->window, op->stride, op->out_h, op->out_w, codes);
    return panel_products(op, codes, batch * op->out_h * op->out_w, out);
}

static int panel_dense(const repro_panel_op *op, const double *x,
                        int64_t batch, uint8_t *codes, double *out)
{
    const int64_t values = op->in_blocks * batch * op->k_dim;
    const double scale = op->scale, zero_point = (double)op->zero_point;
    const double qmax = (double)op->qmax;
    for (int64_t t = 0; t < values; t++)
        codes[t] = quantize_code(x[t], scale, zero_point, qmax);
    return panel_products(op, codes, batch, out);
}

static void panel_relu(const double *x, int64_t values, double *out)
{
    for (int64_t t = 0; t < values; t++) out[t] = x[t] > 0.0 ? x[t] : 0.0;
}

static void panel_avgpool(const repro_panel_op *op, const double *x,
                          int64_t batch, double *out)
{
    const int64_t samples = op->in_blocks * batch, c_dim = op->in_c;
    const int64_t pool = op->window, s = op->stride;
    const double area = (double)(pool * pool);
    for (int64_t b = 0; b < samples; b++) {
        const double *x_b = x + b * op->in_h * op->in_w * c_dim;
        for (int64_t oh = 0; oh < op->out_h; oh++) {
            for (int64_t ow = 0; ow < op->out_w; ow++) {
                double *dst = out + ((b * op->out_h + oh) * op->out_w + ow) * c_dim;
                for (int64_t c = 0; c < c_dim; c++) dst[c] = 0.0;
                for (int64_t i = 0; i < pool; i++)
                    for (int64_t j = 0; j < pool; j++) {
                        const double *src =
                            x_b + ((oh * s + i) * op->in_w + ow * s + j) * c_dim;
                        for (int64_t c = 0; c < c_dim; c++) dst[c] += src[c];
                    }
                for (int64_t c = 0; c < c_dim; c++) dst[c] /= area;
            }
        }
    }
}

/* Run the program ops[0 .. n_ops) on the float64 batch x and copy the last
 * activation (out_values per sample) to out.  Returns 0, -1 when a buffer
 * cannot be allocated, or a failing product's error code (factor_rows). */
int repro_panel_f64(const double *x, int64_t batch, int64_t n_ops,
                    const repro_panel_op *ops, int64_t out_values, double *out)
{
    /* size each float buffer for the largest output it receives (the loop
     * below alternates them, and a ReLU after the first op writes in
     * place) */
    int64_t floats[2] = {1, 1}, codes_size = 1, image_size = 1;
    for (int64_t i = 0, next = 0; i < n_ops; i++) {
        int64_t f, c, im;
        panel_op_sizes(ops + i, &f, &c, &im);
        if (ops[i].kind != PANEL_RELU || i == 0) {
            if (f > floats[next]) floats[next] = f;
            next = 1 - next;
        }
        if (c > codes_size) codes_size = c;
        if (im > image_size) image_size = im;
    }
    const int64_t samples = batch > 0 ? batch : 1;
    double *buffers[2];
    buffers[0] = malloc((size_t)(floats[0] * samples) * sizeof(double));
    buffers[1] = malloc((size_t)(floats[1] * samples) * sizeof(double));
    uint8_t *codes = malloc((size_t)(codes_size * samples));
    uint8_t *image = malloc((size_t)(image_size * samples));
    int status = -1;
    if (buffers[0] && buffers[1] && codes && image) {
        const double *current = x;
        int next = 0;
        status = 0;
        for (int64_t i = 0; i < n_ops && status == 0; i++) {
            const repro_panel_op *op = ops + i;
            double *dst = buffers[next];
            switch (op->kind) {
            case PANEL_CONV:
                status = panel_conv(op, current, batch, image, codes, dst);
                break;
            case PANEL_DENSE:
                status = panel_dense(op, current, batch, codes, dst);
                break;
            case PANEL_AVGPOOL:
                panel_avgpool(op, current, batch, dst);
                break;
            default: /* PANEL_RELU, in place once the input is a buffer */
                if (current != x) dst = (double *)current;
                panel_relu(current,
                           op->in_blocks * batch * op->in_h * op->in_w * op->in_c,
                           dst);
            }
            if (dst == buffers[next]) next = 1 - next;
            current = dst;
        }
        if (status == 0)
            memcpy(out, current, (size_t)(out_values * batch) * sizeof(double));
    }
    free(buffers[0]);
    free(buffers[1]);
    free(codes);
    free(image);
    return status;
}
