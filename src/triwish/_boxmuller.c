/* The Bartlett column walk: columns of stacked m x m fills, from a window of
 * uniforms, in the documented draw order.
 *
 * The same operations, in the same order, as the scalar fill of
 * triwish.samplers over RngStream.standard_normal and RngStream.chi: log,
 * cos and pow are the process's libm calls, the rest are correctly rounded
 * IEEE operations.  triwish.rng builds this file with fixed flags (no
 * -ffast-math, no contraction, no vector math library), which keeps every
 * result bit-identical to the Python code.
 */
#include <math.h>
#include <stddef.h>

/* Box-Muller, cosine branch, from the uniforms u[0], u[1]. */
static double normal(const double *u, double two_pi)
{
    return sqrt(-2.0 * log(1.0 - u[0])) * cos(two_pi * u[1]);
}

/* Marsaglia-Tsang gamma (shape >= 1, unit scale) from u[*at] on: sets *g
 * and moves *at past its uniforms, or returns 0 if u[nu] is reached first. */
static int gamma_mt(const double *u, size_t nu, size_t *at, double shape,
                    double two_pi, double *g)
{
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / sqrt(9.0 * d);
    size_t i = *at;
    for (;;) {
        double x, v, w, x2;
        do {
            if (nu - i < 2)
                return 0;
            x = normal(u + i, two_pi);
            i += 2;
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        if (i == nu)
            return 0;
        w = u[i++];
        x2 = x * x;
        if (w < 1.0 - 0.0331 * x2 * x2
            || (w > 0.0 && log(w) < 0.5 * x2 + d * (1.0 - v + log(v)))) {
            *g = d * v;
            *at = i;
            return 1;
        }
    }
}

/* chi_k = sqrt(gamma(k / 2, 2)), with the pow boost for a shape below 1. */
static int chi(const double *u, size_t nu, size_t *at, double k, double two_pi,
               double *out)
{
    double shape = 0.5 * k, g;
    if (shape < 1.0) {
        if (!gamma_mt(u, nu, at, shape + 1.0, two_pi, &g) || *at == nu)
            return 0;
        g = g * pow(1.0 - u[(*at)++], 1.0 / shape);
    } else if (!gamma_mt(u, nu, at, shape, two_pi, &g)) {
        return 0;
    }
    *out = sqrt(g * 2.0);
    return 1;
}

/* Columns col .. ncol-1 of the fills z (k stacked m x m, C order), column
 * c being column c % m of fill c / m: j = c % m normals above the diagonal,
 * then the diagonal chi_df[j].  Uniforms come from u[0 .. nu-1] in order.
 * Returns the first column not finished; *used is the number of uniforms
 * the finished columns consumed. */
size_t triwish_bartlett_walk(const double *u, size_t nu, double *z, size_t m,
                             size_t col, size_t ncol, const double *df,
                             double two_pi, size_t *used)
{
    size_t at = 0;
    for (; col < ncol; col++) {
        size_t j = col % m, i = at;
        double *top = z + col / m * m * m + j;
        if (nu - i < 2 * j)
            break;
        for (size_t r = 0; r < j; r++, i += 2)
            top[r * m] = normal(u + i, two_pi);
        if (!chi(u, nu, &i, df[j], two_pi, top + j * m))
            break;
        at = i;
    }
    *used = at;
    return col;
}
