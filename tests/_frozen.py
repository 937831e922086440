"""Frozen fixtures; generated by tools/make_fixtures.py.

Each value records the oracle that produced or verified it.  The
moment fixtures are tied to the default QuadConfig digest below, and
all values are bit-identical only under the numeric fingerprint below.
"""

QUAD_DIGEST = 'cb37e032272adb0e'
FINGERPRINT = 'python 3.11.7; numpy 2.4.6; mpmath 1.3.0; simd X86_V2,X86_V3,X86_V4,AVX512_ICL,AVX512_SPR; machine x86_64; libc glibc-2.36; blas scipy-openblas 0.3.31.188.0'

# oracle: mpmath tanh-sinh quadrature of siegelz^2 (30 dps), piecewise
MOMENT1_0_100 = 295.63509905471903
MOMENT1_0_100_ORACLE = 295.63509905471915

# oracle: mpmath tanh-sinh quadrature of siegelz^4 (26 dps), piecewise
MOMENT2_0_500 = 42393.152991257884
MOMENT2_0_500_ORACLE = 42393.1529936112

# oracle: cumulative grid of the k=1 accumulator (window-validated
# against mpmath); ratio over the boundary grid on [10, 5000]
E1_AT_1000 = -11.801779108720439
E1_RATIO_MAX_10_5000 = 7.586553654813723

# E2 uses the package's P4: closed-form a4, a3, derived constants.P4_LOWER
E2_AT_2000 = -1011.3358704608399
E2_RATIO_MAX_500_5000 = 63.531621740321675

# oracle: trapezoid on a 0.002-step grid over |t| <= 8 delta
SMOOTHED_200_20 = 78.99697923833719
SMOOTHED_200_20_ORACLE = 78.99697923833725

# oracle: doubled nodes and tightened tail tolerance
LAPLACE2_01 = 40.87589024439722
LAPLACE2_01_ORACLE = 40.87589024440926

# g(sigma) = L1(2 sigma) - kober_main(sigma) on sigma = 0.2/0.1/0.05/0.02
KOBER_DIFFS = (2.827549452259087, 2.994598052961039, 3.071324739305453, 3.114350317476088)
KOBER_C0 = 3.114350317476088

# oracle: bisection on mpmath.siegeltheta (30 dps)
THETA_POSITIVE_ZERO = 17.84559954041086

# oracle: composite 16-node Gauss-Legendre on unit windows of pointwise E2
INT_E2_1000 = 1107.0454242303967
INT_E2_1000_ORACLE = 1107.0453914312643

# oracle: composite 16-node Gauss-Legendre on 0.25-wide windows of pointwise E2^2
MEANSQ_E2_1000 = 709544311.8967423
MEANSQ_E2_1000_ORACLE = 709544311.8967491
