"""Frozen fixtures; generated by tools/make_fixtures.py.

Each value records the oracle that produced or verified it.  The
moment fixtures are tied to the default QuadConfig digest below, and
all values are bit-identical only under the numeric fingerprint below.
"""

QUAD_DIGEST = '17673b449790639f'
FINGERPRINT = 'python 3.11.7; numpy 2.4.6; scipy 1.17.1; mpmath 1.3.0; simd X86_V2,X86_V3,X86_V4,AVX512_ICL,AVX512_SPR; machine x86_64; libc glibc-2.36'

# oracle: mpmath tanh-sinh quadrature of siegelz^2 (30 dps), piecewise
MOMENT1_0_100 = 295.6350990547195
MOMENT1_0_100_ORACLE = 295.63509905471915

# oracle: mpmath tanh-sinh quadrature of siegelz^4 (26 dps), piecewise
MOMENT2_0_500 = 42393.15299125816
MOMENT2_0_500_ORACLE = 42393.1529936112

# oracle: cumulative grid of the k=1 accumulator (window-validated
# against mpmath); ratio over the boundary grid on [10, 5000]
E1_AT_1000 = -11.801779108742267
E1_RATIO_MAX_10_5000 = 7.586553654807902

# E2 uses the package's P4: closed-form a4, a3, derived constants.P4_LOWER
E2_AT_2000 = -1011.3358704550774
E2_RATIO_MAX_500_5000 = 63.53162174029348

# oracle: trapezoid on a 0.002-step grid over |t| <= 8 delta
SMOOTHED_200_20 = 78.9969792383367
SMOOTHED_200_20_ORACLE = 78.99697923833702

# oracle: doubled nodes and tightened tail tolerance
LAPLACE2_01 = 40.87589024439752
LAPLACE2_01_ORACLE = 40.875890244409305

# g(sigma) = L1(2 sigma) - kober_main(sigma) on sigma = 0.2/0.1/0.05/0.02
KOBER_DIFFS = (2.827549452259154, 2.9945980529611154, 3.07132473930408, 3.1143503174761804)
KOBER_C0 = 3.1143503174761804

# oracle: bisection on mpmath.siegeltheta (30 dps)
THETA_POSITIVE_ZERO = 17.84559954041086

# oracle: composite 16-node Gauss-Legendre on unit windows of pointwise E2
INT_E2_1000 = 1107.0454241856933
INT_E2_1000_ORACLE = 1107.0453914278041

# oracle: composite 16-node Gauss-Legendre on 0.25-wide windows of pointwise E2^2
MEANSQ_E2_1000 = 709544311.8968014
MEANSQ_E2_1000_ORACLE = 709544311.8967997
