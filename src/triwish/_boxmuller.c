/* The Bartlett column walk: every column of k stacked m x m fills, drawn in
 * the documented order from the Philox stream, and written with each fill
 * in Fortran order (each column contiguous, the layout LAPACK and BLAS take
 * without a copy).  Where triwish.rng can build and load this file, it runs
 * every fill, single or batched, at every m.
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
/* Python's 2.0 * math.pi: the same double. */
#define TWO_PI 6.283185307179586

/* The Philox stream from one position on: chunk[at .. CHUNK-1], then the
 * next chunk from the counter ctr. */
struct source {
    const uint64_t *key;        /* 2 words */
    uint64_t ctr[4];            /* counter of the next block, low word first */
    size_t at;
    size_t refills;
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
    s->at = 0;
    s->refills++;
}

static double next(struct source *s)
{
    if (s->at == CHUNK)
        refill(s);
    return s->chunk[s->at++];
}

/* Box-Muller, cosine branch, from the next two uniforms. */
static double normal(struct source *s)
{
    double u1 = next(s);
    double u2 = next(s);
    return sqrt(-2.0 * log(1.0 - u1)) * cos(TWO_PI * u2);
}

/* Marsaglia-Tsang gamma, shape >= 1, unit scale. */
static double gamma_mt(struct source *s, double shape)
{
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / sqrt(9.0 * d);
    for (;;) {
        double x, v, w, x2;
        do {
            x = normal(s);
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        w = next(s);
        x2 = x * x;
        if (w < 1.0 - 0.0331 * x2 * x2
            || (w > 0.0 && log(w) < 0.5 * x2 + d * (1.0 - v + log(v))))
            return d * v;
    }
}

/* chi_k = sqrt(gamma(k / 2, 2)), with the pow boost for a shape below 1. */
static double chi(struct source *s, double k)
{
    double shape = 0.5 * k, g;
    if (shape < 1.0) {
        g = gamma_mt(s, shape + 1.0);
        g = g * pow(1.0 - next(s), 1.0 / shape);
    } else {
        g = gamma_mt(s, shape);
    }
    return sqrt(g * 2.0);
}

/* All k * m columns of the k stacked m x m fills z, each fill in Fortran
 * order, so column c is the m doubles at z + c * m.  It is column j = c % m
 * of fill c / m: j normals above the diagonal, then the diagonal chi with
 * a + s * (j + 1) degrees of freedom, which the caller has checked to be
 * positive.  The uniforms are the Philox stream of key philox_state[0..1]
 * from uniform lane of the block with counter philox_state[2..5] (low word
 * first) on.  Returns the number of uniforms used. */
size_t triwish_bartlett_walk(const uint64_t *philox_state, size_t lane, double *z,
                             size_t m, size_t k, double a, double s)
{
    struct source src;
    src.key = philox_state;
    for (int i = 0; i < 4; i++)
        src.ctr[i] = philox_state[2 + i];
    src.refills = 0;
    refill(&src);
    src.at = lane;
    for (size_t f = 0; f < k; f++) {
        for (size_t j = 0; j < m; j++) {
            double *top = z + (f * m + j) * m;
            for (size_t r = 0; r < j; r++)
                top[r] = normal(&src);
            top[j] = chi(&src, a + s * (double)(j + 1));
        }
    }
    return (src.refills - 1) * CHUNK + src.at - lane;
}
