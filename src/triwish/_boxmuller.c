/* Box-Muller normals from interleaved uniforms u1, u2, u1, u2, ...
 *
 * The same operations, in the same order, as RngStream.standard_normal:
 * log and cos are the process's libm calls, the rest are correctly
 * rounded IEEE operations.  triwish.rng builds this file with fixed flags
 * (no -ffast-math, no contraction, no vector math library), which keeps
 * every result bit-identical to the Python code.
 */
#include <math.h>
#include <stddef.h>

void triwish_box_muller(const double *u, double *z, size_t k, double two_pi)
{
    for (size_t i = 0; i < k; i++)
        z[i] = sqrt(-2.0 * log(1.0 - u[2 * i])) * cos(two_pi * u[2 * i + 1]);
}
