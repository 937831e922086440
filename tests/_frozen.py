"""Frozen fixtures; generated by tools/make_fixtures.py.

Each value records the oracle that produced or verified it.  The
moment fixtures are tied to the default QuadConfig digest below, and
all values are bit-identical only under the numeric fingerprint below.
"""

QUAD_DIGEST = '3414286a19b6178d'
FINGERPRINT = 'python 3.11.7; numpy 2.4.6; mpmath 1.3.0; simd X86_V2,X86_V3,X86_V4,AVX512_ICL,AVX512_SPR; machine x86_64; libc glibc-2.36; blas scipy-openblas 0.3.31.188.0'

# oracle: mpmath tanh-sinh quadrature of siegelz^2 (30 dps), piecewise
MOMENT1_0_100 = 295.6350990547188
MOMENT1_0_100_ORACLE = 295.63509905471915

# oracle: mpmath tanh-sinh quadrature of siegelz^4 (26 dps), piecewise
MOMENT2_0_500 = 42393.15299125797
MOMENT2_0_500_ORACLE = 42393.1529936112

# oracle: cumulative grid of the k=1 accumulator (window-validated
# against mpmath); ratio over the boundary grid on [10, 5000]
E1_AT_1000 = -11.801779108710434
E1_RATIO_MAX_10_5000 = 7.5507224251976774

# E2 uses the package's P4: closed-form a4, a3, derived constants.P4_LOWER
E2_AT_2000 = -1011.3358704547281
E2_RATIO_MAX_500_5000 = 63.24839917983491

# oracle: trapezoid on a 0.002-step grid over |t| <= 8 delta
SMOOTHED_200_20 = 78.99697923833752
SMOOTHED_200_20_ORACLE = 78.99697923833722

# oracle: doubled nodes and tightened tail tolerance
LAPLACE2_01 = 40.87589024439669
LAPLACE2_01_ORACLE = 40.875890244409284

# g(sigma) = L1(2 sigma) - kober_main(sigma) on sigma = 0.2/0.1/0.05/0.02
KOBER_DIFFS = (2.827549452218508, 2.994598052984455, 3.071324739305295, 3.1143503174757825)
KOBER_C0 = 3.1143503174757825

# oracle: bisection on mpmath.siegeltheta (30 dps)
THETA_POSITIVE_ZERO = 17.84559954041086

# oracle: composite 16-node Gauss-Legendre on unit windows of pointwise E2
INT_E2_1000 = 1107.045424632728
INT_E2_1000_ORACLE = 1107.0453918789772

# oracle: composite 16-node Gauss-Legendre on 0.25-wide windows of pointwise E2^2
MEANSQ_E2_1000 = 709544311.8968223
MEANSQ_E2_1000_ORACLE = 709544311.8968222
