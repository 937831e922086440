#!/usr/bin/env python3
"""Compute the frozen test fixtures with their independent oracles.

Every DERIVED expected value in the test suite is produced here, by the
oracle stated next to it, and written to tests/_frozen.py.  Rerun after any
change to the quadrature policy or kernel (the tests compare against the
default QuadConfig digest recorded below), and when the numeric fingerprint
changes: the values are bit-identical only under the fingerprint recorded
with them (zetalab.quadrature.numeric_fingerprint).  The E2 fixtures use the
package's P4 (closed-form a4, a3 and the derived constants.P4_LOWER).  Every
oracle check is asserted before anything is written, and every value that
moved from the existing tests/_frozen.py is printed as NAME old → new, and
every value it no longer writes as NAME old → removed.

The two tanh-sinh oracles of siegelz (MOMENT1_0_100_ORACLE and
MOMENT2_0_500_ORACLE) depend on neither the quadrature nor P4: they are read
from the existing tests/_frozen.py and computed only when it lacks them.

    PYTHONPATH=src python3 tools/make_fixtures.py
"""

import math
import pathlib
import runpy
import time
from dataclasses import replace

import mpmath
import numpy as np
from mpmath import mp

OUT = pathlib.Path(__file__).resolve().parents[1] / "tests" / "_frozen.py"


def mp_quad_moment(k, a, b, dps=30, step=2.0):
    """Independent oracle: mpmath tanh-sinh quadrature of siegelz^2k."""
    mp.dps = dps
    pieces = [a]
    while pieces[-1] < b:
        pieces.append(min(pieces[-1] + step, b))
    return mpmath.quad(lambda t: mpmath.siegelz(t) ** (2 * k), pieces)


def stored_or(stored, name, compute):
    """The value of name in the existing fixtures, else compute()."""
    return stored[name] if name in stored else float(compute())


def main():
    from zetalab.config import QuadConfig
    from zetalab.laplace import kober_main, laplace_moment, laplace_moment_grid
    from zetalab.moments import (
        default_p4,
        error_term,
        integral_of_e2,
        mean_square_e2,
        smoothed_fourth,
    )
    from zetalab.quadrature import get_accumulator, numeric_fingerprint
    from zetalab.zkernel import z_block

    t_start = time.time()
    cfg = QuadConfig()
    stored = runpy.run_path(str(OUT)) if OUT.exists() else {}
    values = {}

    def put(name, value):
        values[name] = value
        return "%s = %r" % (name, value)

    lines = [
        '"""Frozen fixtures; generated by tools/make_fixtures.py.',
        "",
        "Each value records the oracle that produced or verified it.  The",
        "moment fixtures are tied to the default QuadConfig digest below, and",
        "all values are bit-identical only under the numeric fingerprint below.",
        '"""',
        "",
        put("QUAD_DIGEST", cfg.digest()),
        put("FINGERPRINT", numeric_fingerprint()),
        "",
    ]

    # --- second moment over [0, 100]: oracle = independent mpmath tanh-sinh
    acc1 = get_accumulator(1, cfg)
    v, _, e, _ = acc1.cumulative_to(100.0)
    oracle = stored_or(stored, "MOMENT1_0_100_ORACLE", lambda: mp_quad_moment(1, 0.0, 100.0))
    assert abs(v - oracle) <= max(e, 1e-8), (v, oracle, e)
    lines += [
        "# oracle: mpmath tanh-sinh quadrature of siegelz^2 (30 dps), piecewise",
        put("MOMENT1_0_100", v),
        put("MOMENT1_0_100_ORACLE", oracle),
        "",
    ]
    print("moment1[0,100] = %r vs oracle %r  (%.0f s)" % (v, oracle, time.time() - t_start))

    # --- fourth moment over [0, 500]: same oracle
    acc2 = get_accumulator(2, cfg)
    v4, _, e4, _ = acc2.cumulative_to(500.0)
    oracle4 = stored_or(stored, "MOMENT2_0_500_ORACLE", lambda: mp_quad_moment(2, 0.0, 500.0, dps=26))
    assert abs(v4 - oracle4) <= max(e4, 1e-6), (v4, oracle4, e4)
    lines += [
        "# oracle: mpmath tanh-sinh quadrature of siegelz^4 (26 dps), piecewise",
        put("MOMENT2_0_500", v4),
        put("MOMENT2_0_500_ORACLE", oracle4),
        "",
    ]
    print("moment2[0,500] = %r vs oracle %r  (%.0f s)" % (v4, oracle4, time.time() - t_start))

    # --- E1(1000), max |E1|/T^0.3171 on a scan grid
    e1 = error_term(1, 1000.0, cfg)
    bs, cv, _, _ = acc1.boundary_grid(10.0, 5000.0)
    from zetalab.moments import p1_exact

    poly1 = p1_exact()
    logs = np.log(bs)
    e1_vals = cv - bs * np.polyval(np.array(poly1.coeffs), logs)
    ratio_max = float(np.max(np.abs(e1_vals) / bs**0.3171))
    lines += [
        "# oracle: cumulative grid of the k=1 accumulator (window-validated",
        "# against mpmath); ratio over the boundary grid on [10, 5000]",
        put("E1_AT_1000", e1.value),
        put("E1_RATIO_MAX_10_5000", ratio_max),
        "",
    ]
    print("E1(1000) = %r, max|E1|/T^.3171 = %r" % (e1.value, ratio_max))

    # --- E2(2000) with the package's P4
    e2 = error_term(2, 2000.0, cfg)
    p4 = default_p4()
    bs2, cv2, _, _ = acc2.boundary_grid(500.0, 5000.0)
    e2_vals = cv2 - bs2 * np.polyval(np.array(p4.coeffs), np.log(bs2))
    e2_ratio_max = float(np.max(np.abs(e2_vals) / bs2 ** (2.0 / 3.0)))
    lines += [
        "# E2 uses the package's P4: closed-form a4, a3, derived constants.P4_LOWER",
        put("E2_AT_2000", e2.value),
        put("E2_RATIO_MAX_500_5000", e2_ratio_max),
        "",
    ]
    print("E2(2000) = %r, max|E2|/T^(2/3) = %r" % (e2.value, e2_ratio_max))

    # --- smoothed fourth moment at (200, 20): oracle = fine-grid trapezoid
    sm = smoothed_fourth(200.0, 20.0, cfg)
    w = 8.0
    grid = np.arange(200.0 - w * 20.0, 200.0 + w * 20.0, 0.002)
    z, _ = z_block(np.abs(grid))
    f = z**4 * np.exp(-(((grid - 200.0) / 20.0) ** 2))
    oracle_sm = float(np.trapezoid(f, grid) / (20.0 * math.sqrt(math.pi)))
    assert abs(sm.value - oracle_sm) < 1e-5, (sm.value, oracle_sm)
    lines += [
        "# oracle: trapezoid on a 0.002-step grid over |t| <= 8 delta",
        put("SMOOTHED_200_20", sm.value),
        put("SMOOTHED_200_20_ORACLE", oracle_sm),
        "",
    ]
    print("smoothed(200,20) = %r vs %r" % (sm.value, oracle_sm))

    # --- Laplace fixtures
    l2_01 = laplace_moment(2, 0.1, cfg)
    cfg_hi = replace(cfg, nodes=32, laplace_tail_abs=1e-12)
    l2_01_hi = laplace_moment(2, 0.1, cfg_hi)
    assert abs(l2_01.value - l2_01_hi.value) <= l2_01.err_bound + l2_01_hi.err_bound
    lines += [
        "# oracle: doubled nodes and tightened tail tolerance",
        put("LAPLACE2_01", l2_01.value),
        put("LAPLACE2_01_ORACLE", l2_01_hi.value),
        "",
    ]
    print("L2(0.1) = %r vs %r" % (l2_01.value, l2_01_hi.value))

    # Kober constant: c0 = lim L1(2s) - kober_main(s); record the value at
    # the smallest sigma of the acceptance grid.
    sig = [0.2, 0.1, 0.05, 0.02]
    res = laplace_moment_grid(1, [2 * s for s in sig], cfg)
    diffs = [r.value - kober_main(s) for s, r in zip(sig, res)]
    lines += [
        "# g(sigma) = L1(2 sigma) - kober_main(sigma) on sigma = 0.2/0.1/0.05/0.02",
        put("KOBER_DIFFS", tuple(diffs)),
        put("KOBER_C0", diffs[-1]),
        "",
    ]
    print("kober diffs:", diffs)

    # --- theta positive zero: oracle = bisection on mpmath.siegeltheta
    lo, hi = 17.0, 18.5
    with mpmath.workdps(30):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mpmath.siegeltheta(mid) < 0:
                lo = mid
            else:
                hi = mid
    lines += [
        "# oracle: bisection on mpmath.siegeltheta (30 dps)",
        put("THETA_POSITIVE_ZERO", 0.5 * (lo + hi)),
        "",
    ]
    print("theta zero = %r" % (0.5 * (lo + hi),))

    # --- integral of E2 at T=1000: oracle = composite Gauss-Legendre over
    # pointwise error_term evaluations (direct double integral on a fine
    # grid; windows short enough to resolve E2's unit-scale oscillation)
    ie2 = integral_of_e2(1000.0, cfg)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for a10 in range(0, 10000, 10):
        a = a10 / 10.0
        b = a + 1.0
        ts = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        vals = []
        for t in ts:
            v, _, _, _ = acc2.cumulative_to(float(t))
            vals.append(v - float(t) * np.polyval(np.array(p4.coeffs), math.log(t)))
        total += 0.5 * (b - a) * float(np.sum(weights * np.array(vals)))
    assert abs(ie2.value - total) < 0.5 + ie2.err_bound, (ie2.value, total)
    lines += [
        "# oracle: composite 16-node Gauss-Legendre on unit windows of pointwise E2",
        put("INT_E2_1000", ie2.value),
        put("INT_E2_1000_ORACLE", total),
        "",
    ]
    print("intE2(1000) = %r vs %r" % (ie2.value, total))

    # --- mean square of E2 at T=1000: oracle = composite 16-node
    # Gauss-Legendre of pointwise E2^2 on 0.25-wide windows, all nodes from one
    # cumulative_at query; its own error is its change when the windows are
    # four times wider (about 3e-4), which the test uses as its tolerance
    ms, _ = mean_square_e2(1000.0, cfg)

    def meansq_oracle(width):
        lefts = np.arange(0.0, 1000.0, width)
        ts = (lefts[:, None] + 0.5 * width * (nodes + 1.0)).ravel()
        e2n = acc2.cumulative_at(ts)[0] - ts * np.polyval(np.array(p4.coeffs), np.log(ts))
        return 0.5 * width * float(np.sum(np.sum(weights * e2n.reshape(-1, 16) ** 2, axis=1)))

    oracle_ms = meansq_oracle(0.25)
    spread = abs(meansq_oracle(1.0) - oracle_ms)
    assert abs(ms.value - oracle_ms) <= ms.err_bound, (ms.value, oracle_ms, ms.err_bound)
    assert abs(ms.value - oracle_ms) <= 3e-4 and spread <= 3e-4, (ms.value, oracle_ms, spread)
    lines += [
        "# oracle: composite 16-node Gauss-Legendre on 0.25-wide windows of pointwise E2^2",
        put("MEANSQ_E2_1000", ms.value),
        put("MEANSQ_E2_1000_ORACLE", oracle_ms),
        "",
    ]
    print("meansqE2(1000) = %r vs %r (oracle spread %.2g)" % (ms.value, oracle_ms, spread))

    for name, value in values.items():
        if stored.get(name) != value:
            print("%s %r → %r" % (name, stored.get(name), value))
    for name in sorted(n for n in stored if n.isupper() and n not in values):
        print("%s %r → removed" % (name, stored[name]))
    OUT.write_text("\n".join(lines))
    print("wrote %s in %.0f s total" % (OUT, time.time() - t_start))


if __name__ == "__main__":
    main()
