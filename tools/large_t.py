#!/usr/bin/env python3
"""Time the fourth moment at large T, and count the panel rules on a window.

    PYTHONPATH=src python3 tools/large_t.py moment 3e5
    PYTHONPATH=src python3 tools/large_t.py rules 1e6 30

moment runs `zetalab moment --k 2 --T <T>` in a child process, with a fresh
checkpoint in a temporary directory, and prints one JSON object: T, the
wall time, the child's peak resident memory and the row the command wrote
(its integral, E and err_bound).  rules integrates |Z|^4 and t |Z|^4 over the
panels of the default mesh from 0 that meet [t, t + width] in one
PanelBatch.run and prints the panels, the Gauss-Kronrod rules they took
(counted at PanelBatch._panel_pair), the summed value and the summed charge.  Run it
with PYTHONPATH pointing at another checkout's src to measure that code;
the benchmark (perfbench/) runs no workload above T = 3e4.  Limit the BLAS
threads (OPENBLAS_NUM_THREADS=1) to measure one core.
"""

import csv
import json
import os
import resource
import subprocess
import sys
import tempfile
import time


def moment(t: float):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "moment.csv")
        cmd = [sys.executable, "-m", "zetalab.cli", "moment", "--k", "2", "--T", repr(t),
               "--checkpoint", os.path.join(tmp, "cp.txt"), "--out", out]
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        wall = time.perf_counter() - start
        with open(out) as fh:
            row = next(csv.DictReader(line for line in fh if not line.startswith("#")))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"T": t, "wall_s": wall, "peak_rss_mb": rss, "row": row}


def rules(t: float, width: float):
    import numpy as np

    from zetalab.config import QuadConfig
    from zetalab.quadrature import PanelBatch, first_panel, panel_bounds
    from zetalab.zkernel import moment_integrand

    cfg = QuadConfig()
    count = [0]
    real = PanelBatch._panel_pair

    def counted(self, a, b, *samples):
        count[0] += len(a)
        return real(self, a, b, *samples)

    PanelBatch._panel_pair = counted
    b = panel_bounds(np.arange(max(first_panel(t, cfg) - 1, 0), first_panel(t + width, cfg) + 1), cfg)
    start = time.perf_counter()
    value, _, err, _ = PanelBatch(lambda u: moment_integrand(u, 2), cfg).run(b[:-1], b[1:])
    return {"t": t, "width": width, "panels": len(b) - 1, "rules": count[0],
            "rules_per_panel": count[0] / (len(b) - 1), "value": float(np.sum(value)),
            "charge": float(np.sum(err)), "s": time.perf_counter() - start}


if __name__ == "__main__":
    what, *args = sys.argv[1:]
    print(json.dumps({"moment": moment, "rules": rules}[what](*map(float, args))))
