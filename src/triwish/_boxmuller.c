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
 *
 * The second half of the file is the matrix text of triwish.matio: doubles
 * written as Python's repr writes them, and CSV or NDJSON rows read as
 * float() reads each cell; both with integer arithmetic only, never the C
 * library's conversions.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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
 * positive, and zeros below the diagonal: every double of z is written.
 * The uniforms are the Philox stream of key philox_state[0..1] from
 * uniform lane of the block with counter philox_state[2..5] (low word
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
            for (size_t r = j + 1; r < m; r++)
                top[r] = 0.0;
        }
    }
    return (src.refills - 1) * CHUNK + src.at - lane;
}

/* ---- Matrix text ----
 *
 * The writers' and the readers' number conversions, for triwish.matio.
 * Their constant tables are built by triwish.matio from exact integer
 * arithmetic and passed in with every call; the scalar multipliers below
 * are recomputed over their ranges by the tests.
 */

/* floor(e * log10(2)) for 0 <= e <= 1650, floor(e * log10(5)) for
 * 0 <= e <= 2620, and the bit length of 5^e for 0 <= e <= 3528, as
 * (e * MUL) >> SHIFT (+ 1 for the bit length). */
#define LOG10_2_MUL 78913
#define LOG10_2_SHIFT 18
#define LOG10_5_MUL 732923
#define LOG10_5_SHIFT 20
#define LOG2_5_MUL 1217359
#define LOG2_5_SHIFT 19
/* The significand width of Ryu's 5^q and 5^-q tables. */
#define POW5_BITS 125

static uint32_t log10_pow2(int32_t e) { return ((uint32_t)e * LOG10_2_MUL) >> LOG10_2_SHIFT; }
static uint32_t log10_pow5(int32_t e) { return ((uint32_t)e * LOG10_5_MUL) >> LOG10_5_SHIFT; }
static int32_t pow5_bits(int32_t e) { return (int32_t)((((uint32_t)e * LOG2_5_MUL) >> LOG2_5_SHIFT) + 1); }

static int multiple_of_pow5(uint64_t v, uint32_t p)
{
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

/* (m * mul) >> j for the 128-bit mul = mul[1] * 2^64 + mul[0], j >= 64. */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    unsigned __int128 lo = (unsigned __int128)m * mul[0];
    unsigned __int128 hi = (unsigned __int128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* Ryu (Adams, PLDI 2018): the shortest digits * 10^exp that reads back as
 * the finite nonzero double of the given fields, the closest to it among
 * the shortest, ties to an even last digit.  pow5_inv[2q..2q+1] is
 * floor(2^(bitlen(5^q) - 1 + POW5_BITS) / 5^q) + 1 and pow5[2i..2i+1] is
 * 5^i scaled to POW5_BITS bits, low word first. */
static uint64_t shortest(uint64_t frac, uint32_t biased, const uint64_t *pow5_inv,
                         const uint64_t *pow5, int32_t *exp)
{
    /* Two extra bits below the significand for the interval's bounds. */
    int32_t e2 = (biased ? (int32_t)biased : 1) - 1023 - 52 - 2;
    uint64_t m2 = biased ? frac | (1ull << 52) : frac;
    int accept_bounds = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = frac != 0 || biased <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;

    if (e2 >= 0) {
        uint32_t q = log10_pow2(e2) - (e2 > 3);
        int32_t j = -e2 + (int32_t)q + POW5_BITS + pow5_bits((int32_t)q) - 1;
        const uint64_t *mul = pow5_inv + 2 * q;
        e10 = (int32_t)q;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 21) {
            /* At most one of mv - 1 - mm_shift, mv, mv + 2 is a multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - (int32_t)q;
        int32_t j = (int32_t)q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        e10 = (int32_t)q + e2;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv = 4 * m2 has at least two trailing zero bits. */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }

    int32_t removed = 0;
    uint32_t last = 0;
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros) {
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly halfway: round to even */
        out = vr + ((vr == vm && (!accept_bounds || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        out = vr + (vr == vm || round_up);
    }
    *exp = e10 + removed;
    return out;
}

/* The longest text put_double writes: "-2.2250738585072014e-308". */
#define DOUBLE_TEXT_MAX 24

/* x as Python's repr writes it; returns the end of the text. */
static char *put_double(char *p, double x, const uint64_t *pow5_inv, const uint64_t *pow5)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t frac = bits & ((1ull << 52) - 1);
    uint32_t biased = (uint32_t)(bits >> 52) & 0x7ff;
    if (biased == 0x7ff && frac) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (biased == 0 && frac == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int32_t exp;
    uint64_t v = shortest(frac, biased, pow5_inv, pow5, &exp);
    while (v % 10 == 0) {
        v /= 10;
        exp++;
    }
    char digits[20];
    int n = 0;
    for (uint64_t t = v; t; t /= 10)
        digits[19 - n++] = (char)('0' + t % 10);
    const char *d = digits + 20 - n;
    /* The value is 0.d * 10^point. */
    int point = exp + n;
    if (point <= -4 || point > 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)n - 1);
            p += n - 1;
        }
        int e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)-point);
        p += -point;
        memcpy(p, d, (size_t)n);
        p += n;
    } else if (point < n) {
        memcpy(p, d, (size_t)point);
        p += point;
        *p++ = '.';
        memcpy(p, d + point, (size_t)(n - point));
        p += n - point;
    } else {
        memcpy(p, d, (size_t)n);
        p += n;
        memset(p, '0', (size_t)(point - n));
        p += point - n;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}

/* The rows of the C-ordered m x m matrix x as text in out, which holds at
 * least m * (m * (DOUBLE_TEXT_MAX + 2) + 2) bytes: each row's values joined
 * by "," and ended by "\n" (layout 0, CSV), or each row's values joined by
 * ", " in brackets, the rows joined by ", " (layout 1, an NDJSON "rows"
 * list without its outer brackets).  Returns the number of bytes written. */
size_t triwish_format_rows(const double *x, size_t m, int layout, char *out,
                           const uint64_t *pow5_inv, const uint64_t *pow5)
{
    char *p = out;
    for (size_t r = 0; r < m; r++) {
        if (layout) {
            if (r) {
                *p++ = ',';
                *p++ = ' ';
            }
            *p++ = '[';
        }
        for (size_t c = 0; c < m; c++) {
            if (c) {
                *p++ = ',';
                if (layout)
                    *p++ = ' ';
            }
            p = put_double(p, x[r * m + c], pow5_inv, pow5);
        }
        *p++ = layout ? ']' : '\n';
    }
    return (size_t)(p - out);
}

/* The double nearest w * 10^q (ties to even) as bits, after Eisel and
 * Lemire (Software: Practice and Experience 51(8), 2021); w > 0 and q is in
 * the table.  pow10 holds 4 words for each q: 10^q = t * 2^s with
 * 2^127 <= t < 2^128 rounded down, as t's high word, its low word, s, and
 * 1 where t is exact.  Returns 0 where the rounding cannot be decided from
 * the truncated t, or the value overflows. */
static int nearest(uint64_t w, const uint64_t *entry, uint64_t *bits)
{
    int lz = __builtin_clzll(w);
    w <<= lz;
    /* z = w * t, 192 bits: z2, z1, z0 from the top.  It is below the exact
     * product by less than w < 2^64, and equal to it where t is exact. */
    unsigned __int128 hi = (unsigned __int128)w * entry[0];
    unsigned __int128 lo = (unsigned __int128)w * entry[1];
    unsigned __int128 mid = (lo >> 64) + (uint64_t)hi;
    uint64_t z0 = (uint64_t)lo, z1 = (uint64_t)mid;
    uint64_t z2 = (uint64_t)(hi >> 64) + (uint64_t)(mid >> 64);
    /* The top 54 bits: 53 and the rounding bit. */
    int shift = 9 + (int)(z2 >> 63);
    uint64_t mant = z2 >> shift;
    uint64_t rest = z2 & ((1ull << shift) - 1);
    int sticky;
    if (entry[3]) {
        sticky = (rest | z1 | z0) != 0;
    } else {
        /* Only a carry out of the bits below mant can change it; with them
         * not all ones there is none, and the exact rest is above zero. */
        if (rest == (1ull << shift) - 1 && z1 == UINT64_MAX)
            return 0;
        sticky = 1;
    }
    /* value = mant * 2^(e - 1076) with e the biased exponent of a normal
     * result. */
    int64_t e = 1204 + shift + (int64_t)entry[2] - lz;
    if (e <= 0) {
        /* Subnormal: the result counts units of 2^-1074. */
        int64_t d = 2 - e;
        if (d > 54) {
            *bits = 0;
            return 1;
        }
        sticky |= (mant & ((1ull << (d - 1)) - 1)) != 0;
        uint64_t f = mant >> d, round = mant >> (d - 1) & 1;
        *bits = f + (round && (sticky || (f & 1)));
        return 1;
    }
    uint64_t f = mant >> 1, round = mant & 1;
    /* f + round up may reach 2^53, which carries into the exponent. */
    *bits = ((uint64_t)(e - 1) << 52) + f + (round && (sticky || (f & 1)));
    return *bits < 0x7ff0000000000000u;
}

/* One cell at *pp, as the double float() makes of it; moves *pp past it.
 * With json 0 the cell is of the grammar [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?;
 * with json 1 it is a JSON number that json.loads reads as a float,
 * -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? with a fraction or an exponent.
 * Either way it has at most 19 significant digits.  Returns 0 where the text
 * is not such a cell or the value is not decided here. */
static int parse_cell(const char **pp, const char *end, int json, const double *small,
                      const uint64_t *pow10, int64_t qmin, int64_t qmax, double *out)
{
    const char *p = *pp;
    int neg = 0, digits = 0, any = 0, frac = 0;
    uint64_t w = 0;
    int64_t q = 0;
    if (p < end && (*p == '-' || (*p == '+' && !json)))
        neg = *p++ == '-';
    for (;; frac = 1) {
        const char *run = p;
        for (; p < end && *p >= '0' && *p <= '9'; p++) {
            any = 1;
            q -= frac;
            if (w || *p != '0') {
                if (++digits > 19)
                    return 0;
                w = w * 10 + (uint64_t)(*p - '0');
            }
        }
        /* JSON has digits on both sides of a point, and no leading zero. */
        if (json && (p == run || (!frac && *run == '0' && p - run > 1)))
            return 0;
        if (frac || p == end || *p != '.')
            break;
        p++;
    }
    if (!any)
        return 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int eneg = 0;
        int64_t ev = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            eneg = *p++ == '-';
        if (p == end || *p < '0' || *p > '9')
            return 0;
        for (; p < end && *p >= '0' && *p <= '9'; p++) {
            ev = ev * 10 + (*p - '0');
            if (ev > 100000)
                return 0;
        }
        q += eneg ? -ev : ev;
    } else if (json && !frac) {
        return 0; /* an integer token, which json.loads reads as an int */
    }
    *pp = p;
    if (w == 0) {
        *out = neg ? -0.0 : 0.0;
        return 1;
    }
    while (w % 10 == 0) {
        w /= 10;
        q++;
    }
    double v;
    if (w <= 1ull << 53 && q >= -22 && q <= 22) {
        /* Clinger: w and 10^|q| are exact doubles, so one rounding. */
        v = q < 0 ? (double)w / small[-q] : (double)w * small[q];
    } else {
        uint64_t bits;
        if (q < qmin || q > qmax || !nearest(w, pow10 + 4 * (q - qmin), &bits))
            return 0;
        memcpy(&v, &bits, sizeof v);
    }
    *out = neg ? -v : v;
    return 1;
}

/* m rows of m cells from text[pos] on, read into the C-ordered m x m out,
 * in the layouts of triwish_format_rows: cells joined by "," and each row
 * ended by "\n" or, for the last row, by the end of the text at text[end]
 * (layout 0, CSV); or each row's cells, JSON numbers joined by ", ", in
 * brackets, and the rows joined by ", " (layout 1, the items of an NDJSON
 * "rows" list), with anything after the last "]" left unread.  pow10 covers
 * q = qmin..qmax (see nearest).  Returns the number of bytes read, or -1
 * where the rows are not in this form or a value is not decided here. */
ptrdiff_t triwish_parse_rows(const char *text, size_t pos, size_t end, size_t m, int layout,
                             double *out, const uint64_t *pow10, int64_t qmin, int64_t qmax)
{
    double small[23];
    small[0] = 1.0;
    for (int k = 1; k < 23; k++)
        small[k] = small[k - 1] * 10.0; /* exact up to 10^22 */
    const char *p = text + pos, *stop = text + end;
    for (size_t r = 0; r < m; r++) {
        if (layout && ((r && (stop - p < 2 || *p++ != ',' || *p++ != ' '))
                       || p == stop || *p++ != '['))
            return -1;
        for (size_t c = 0; c < m; c++) {
            if (!parse_cell(&p, stop, layout, small, pow10, qmin, qmax, out + r * m + c))
                return -1;
            if (c + 1 < m && (p == stop || *p++ != ','
                              || (layout && (p == stop || *p++ != ' '))))
                return -1;
        }
        if (layout) {
            if (p == stop || *p++ != ']')
                return -1;
        } else if (p < stop) {
            if (*p != '\n')
                return -1;
            p++;
        } else if (r + 1 < m) {
            return -1;
        }
    }
    return p - (text + pos);
}
