/* The Bartlett column walk: columns of stacked m x m fills, drawn in the
 * documented order from the Philox stream or from a window of uniforms, and
 * written in C order or in Fortran order (each column contiguous, the
 * layout LAPACK and BLAS take without a copy).
 *
 * The same operations, in the same order, as the scalar fill of
 * triwish.samplers over RngStream.standard_normal and RngStream.chi: log,
 * cos and pow are the process's libm calls, the rest are correctly rounded
 * IEEE operations.  The uniforms are those of numpy.random.Philox keyed with
 * (seed, stream): uniform p is (raw >> 11) * 2^-53 for the raw output in
 * lane p % 4 of the block whose 256-bit counter is p / 4 + 1.  triwish.rng
 * builds this file with fixed flags (no -ffast-math, no contraction, no
 * vector math library), which keeps every result bit-identical to the
 * Python code.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* Uniforms generated per refill: 64 Philox blocks. */
#define CHUNK 256

/* Where the uniforms come from: u[at .. n-1], then, with a Philox key, the
 * next chunk from the counter ctr; without one, u is all there is. */
struct source {
    const double *u;
    size_t n, at;
    size_t before;              /* uniforms taken before u[0] */
    const uint64_t *key;        /* 2 words, or NULL */
    uint64_t ctr[4];            /* counter of the next block, low word first */
    double chunk[CHUNK];
};

/* The high and low words of a * b.  Compilers without a 128-bit integer
 * type fail here, and the fills then run the scalar loop. */
static uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}

/* Philox 4x64 with 10 rounds (Salmon et al., SC'11): the block of counter
 * c under the key k. */
static void philox(const uint64_t c[4], const uint64_t k[2], uint64_t out[4])
{
    uint64_t x0 = c[0], x1 = c[1], x2 = c[2], x3 = c[3], k0 = k[0], k1 = k[1];
    for (int r = 0; r < 10; r++) {
        uint64_t hi0, hi1;
        uint64_t lo0 = mulhilo(0xD2E7470EE14C6C93u, x0, &hi0);
        uint64_t lo1 = mulhilo(0xCA5A826395121157u, x2, &hi1);
        x0 = hi1 ^ x1 ^ k0;
        x1 = lo1;
        x2 = hi0 ^ x3 ^ k1;
        x3 = lo0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    out[0] = x0;
    out[1] = x1;
    out[2] = x2;
    out[3] = x3;
}

/* The next CHUNK uniforms, from the block of counter s->ctr on. */
static void refill(struct source *s)
{
    for (size_t b = 0; b < CHUNK; b += 4) {
        uint64_t raw[4];
        philox(s->ctr, s->key, raw);
        for (int i = 0; i < 4; i++)
            s->chunk[b + i] = (double)(raw[i] >> 11) * 0x1p-53;
        for (int i = 0; i < 4 && ++s->ctr[i] == 0; i++)
            ;
    }
    s->before += s->n;
    s->u = s->chunk;
    s->n = CHUNK;
    s->at = 0;
}

/* Sets *x to the next uniform; 0 where a window has run out. */
static int next(struct source *s, double *x)
{
    if (s->at == s->n) {
        if (!s->key)
            return 0;
        refill(s);
    }
    *x = s->u[s->at++];
    return 1;
}

static size_t taken(const struct source *s)
{
    return s->before + s->at;
}

/* Box-Muller, cosine branch, from the next two uniforms. */
static int normal(struct source *s, double two_pi, double *z)
{
    double u1, u2;
    if (!next(s, &u1) || !next(s, &u2))
        return 0;
    *z = sqrt(-2.0 * log(1.0 - u1)) * cos(two_pi * u2);
    return 1;
}

/* Marsaglia-Tsang gamma (shape >= 1, unit scale): sets *g. */
static int gamma_mt(struct source *s, double shape, double two_pi, double *g)
{
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / sqrt(9.0 * d);
    for (;;) {
        double x, v, w, x2;
        do {
            if (!normal(s, two_pi, &x))
                return 0;
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        if (!next(s, &w))
            return 0;
        x2 = x * x;
        if (w < 1.0 - 0.0331 * x2 * x2
            || (w > 0.0 && log(w) < 0.5 * x2 + d * (1.0 - v + log(v)))) {
            *g = d * v;
            return 1;
        }
    }
}

/* chi_k = sqrt(gamma(k / 2, 2)), with the pow boost for a shape below 1. */
static int chi(struct source *s, double k, double two_pi, double *out)
{
    double shape = 0.5 * k, g, w;
    if (shape < 1.0) {
        if (!gamma_mt(s, shape + 1.0, two_pi, &g) || !next(s, &w))
            return 0;
        g = g * pow(1.0 - w, 1.0 / shape);
    } else if (!gamma_mt(s, shape, two_pi, &g)) {
        return 0;
    }
    *out = sqrt(g * 2.0);
    return 1;
}

/* Columns col .. ncol-1 of the fills z (k stacked m x m, entry (r, j) of
 * fill f at z[f * m * m + r * rs + j * cs]: rs = m, cs = 1 in C order,
 * rs = 1, cs = m in Fortran order), column c being column c % m of fill
 * c / m: j = c % m normals above the diagonal, then the diagonal
 * chi_df[j].
 *
 * With philox_state = {seed, stream, counter (4 words, low first)} the
 * uniforms are the Philox stream from uniform lane of that counter's block
 * on, and every column is finished.  With NULL they are u[0 .. nu-1]; a
 * column they do not finish is left unfinished, with its normals possibly
 * written.  Returns the first column not finished; *used is the number of
 * uniforms the finished columns consumed. */
size_t triwish_bartlett_walk(const uint64_t *philox_state, size_t lane,
                             const double *u, size_t nu, double *z, size_t m,
                             size_t rs, size_t cs,
                             size_t col, size_t ncol, const double *df,
                             double two_pi, size_t *used)
{
    struct source s = {u, nu, 0, 0, NULL, {0, 0, 0, 0}, {0}};
    size_t done = 0;
    if (philox_state) {
        s.key = philox_state;
        for (int i = 0; i < 4; i++)
            s.ctr[i] = philox_state[2 + i];
        s.n = 0;
        refill(&s);
        s.at = lane;
        s.before = -lane;
    }
    for (; col < ncol; col++) {
        size_t j = col % m, r;
        double *top = z + col / m * m * m + j * cs;
        for (r = 0; r < j && normal(&s, two_pi, top + r * rs); r++)
            ;
        if (r < j || !chi(&s, df[j], two_pi, top + j * rs))
            break;
        done = taken(&s);
    }
    *used = done;
    return col;
}
