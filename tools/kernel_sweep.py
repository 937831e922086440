#!/usr/bin/env python3
"""Time the kernel on quadrature panel nodes, per t.

For each starting t, takes PANELS consecutive panels of the default mesh
from 0, the first one ending at or above t (quadrature.first_panel,
quadrature.panel_bounds), takes the Gauss-Kronrod nodes of each
(quadrature.panel_nodes), and times zkernel.z_block on all of them in one
call, as a fill evaluates a chunk of panels: a t below zkernel.T_SWITCH
times the Euler-Maclaurin branch on the panels below T_SWITCH, any other
the Riemann-Siegel branch.  Prints one JSON object: per t, the points, the
median and the spread of microseconds per point over REPEATS calls after
one warm-up call.  Every caller in the package evaluates panel nodes, so
this is the kernel's cost as the functionals see it; isolated points, one
per anchor, cost several times more.

    PYTHONPATH=src python3 tools/kernel_sweep.py [t ...]

Run it with PYTHONPATH pointing at another checkout's src to time that
kernel on the same nodes.  Limit the BLAS threads (OPENBLAS_NUM_THREADS=1)
to time one core.
"""

import json
import statistics
import sys
import time

import numpy as np

PANELS = 512
REPEATS = 7
DEFAULT_TS = (100.0, 300.0, 1e3, 3e4, 1e5, 1e6, 1e7)


def panel_points(t0: float):
    """The Gauss-Kronrod nodes of PANELS panels of the mesh from 0, the
    first ending at or above t0, or of those below zkernel.T_SWITCH if t0 is."""
    from zetalab import quadrature, zkernel
    from zetalab.config import QuadConfig

    cfg = QuadConfig()
    p = quadrature.first_panel(t0, cfg)
    b = quadrature.panel_bounds(np.arange(p, p + PANELS + 1), cfg)
    if t0 < zkernel.T_SWITCH:  # the row times the Euler-Maclaurin branch alone
        b = b[b <= zkernel.T_SWITCH]
    return quadrature.panel_nodes(b[:-1], b[1:], cfg.nodes)[0].ravel()


def time_kernel(t0: float) -> dict:
    from zetalab import zkernel

    ts = panel_points(t0)
    zkernel.z_block(ts)  # builds the tables of this t
    us = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        zkernel.z_block(ts)
        us.append(1e6 * (time.perf_counter() - start) / ts.size)
    q1, _, q3 = statistics.quantiles(us, n=4, method="inclusive")
    return {"t": t0, "pts": int(ts.size), "us_per_pt": statistics.median(us), "q1": q1, "q3": q3}


def main(argv):
    ts = [float(x) for x in argv] or DEFAULT_TS
    from zetalab.config import KERNEL_VERSION

    out = {"kernel": KERNEL_VERSION, "panels": PANELS, "repeats": REPEATS,
           "numpy": np.__version__, "rows": [time_kernel(t) for t in ts]}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
