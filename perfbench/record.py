#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: for every workload and input variant,
each operation's outputs with their reported error, computed by the zetalab
under ``src/``.  The references were recorded from commit 56d1876; record
them again only when the program is known to have been wrong, or when the
benchmark stores more of the seed's outputs, and say which values changed.
For the scan it stores E1 with its error bound on the scan's grid and at
each crossing, with E1's slope there, so that a run on another mesh can be
checked too.  The tanh-sinh oracle is reused unless it is missing or was
computed for another window, precision or piece width.
"""

import argparse
import json
import re
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread cap before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402

ORACLE_DPS = 20
ORACLE_PIECE = 0.25


def tanh_sinh_window():
    """int |Z|^4 over ORACLE_WINDOW by mpmath tanh-sinh quadrature of siegelz^4."""
    import mpmath

    a, b = workloads.ORACLE_WINDOW
    n = int(round((b - a) / ORACLE_PIECE))
    pieces = [a + (b - a) * i / n for i in range(n + 1)]
    with mpmath.workdps(ORACLE_DPS):
        value, err = mpmath.quad(lambda t: mpmath.siegelz(t) ** 4, pieces, error=True)
    return {"a": a, "b": b, "dps": ORACLE_DPS, "piece": ORACLE_PIECE, "value": float(value),
            "err": float(err) + 1e-15 * abs(float(value)),
            "method": "mpmath.quad tanh-sinh of siegelz^4"}


def oracle_is_current(oracle) -> bool:
    """Whether a stored oracle was computed for the present window and settings."""
    if oracle is None:
        return False
    return ((oracle["a"], oracle["b"]) == tuple(workloads.ORACLE_WINDOW)
            and oracle.get("dps") == ORACLE_DPS and oracle.get("piece") == ORACLE_PIECE)


def scan_reference(report):
    """E1 on the scan's grid and at each crossing, with error bounds and slopes."""
    import numpy as np
    from zetalab import quadrature, zkernel
    from zetalab.config import QuadConfig
    from zetalab.moments import p1_exact

    acc = quadrature.get_accumulator(1, QuadConfig())
    grid = acc.boundary_grid(*report.t_range)[0]
    e1, err, _ = checks.e1_at(acc, grid)
    cs = np.array(report.crossings)
    _, c_err, _ = checks.e1_at(acc, cs)
    z, _ = zkernel.z_block(cs)
    # d/dt [t P1(log t)] = P1(log t) + 1
    slope = np.abs(z**2 - (np.polyval(np.array(p1_exact().coeffs), np.log(cs)) + 1.0))
    # Stored compactly: E1 to 12 digits, with that rounding added to its
    # error bound, which is rounded up to 2 digits.
    e1 = [float("%.12g" % v) for v in e1]
    err = [float("%.2g" % ((e + 1e-12 * abs(v)) * 1.06)) for e, v in zip(err, e1)]
    return {"samples": {"t": grid.tolist(), "E1": e1, "err": err},
            "crossings": cs.tolist(), "crossing_err": c_err.tolist(),
            "crossing_slope": slope.tolist(),
            "exceed_plus": len(report.exceed_plus), "exceed_minus": len(report.exceed_minus),
            "grid_points": report.grid_points}


def record_variant(workload, variant, s):
    inp = workloads.make_inputs(workload, variant)
    s.reset()
    workloads.body(workload, s, inp)
    workloads.after_body(workload, s)
    outs = {}
    for op, result, error in s.ops:
        if error is not None:
            raise RuntimeError("%s %d: %s raised %s" % (workload, variant, op, error))
        outs[op] = scan_reference(result) if op.startswith("scans.") else workloads.outputs(op, result, s)
    return {"inputs": inp, "outputs": outs}


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    path = HERE / "reference.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    s = run.setup()
    oracle = old.get("oracles", {}).get("e2_window")
    if not oracle_is_current(oracle):
        start = perf_counter()
        oracle = tanh_sinh_window()
        print("oracle %r in %.1f s" % (oracle, perf_counter() - start), flush=True)
    ref = {"recorded_from": run.provenance(0, 0), "p4": list(workloads.P4_COEFFS),
           "oracles": {"e2_window": oracle}, "workloads": {}}
    for workload in run.WORKLOADS:
        ref["workloads"][workload] = {}
        for variant in range(workloads.VARIANTS):
            start = perf_counter()
            ref["workloads"][workload][str(variant)] = record_variant(workload, variant, s)
            print("%s %d in %.1f s" % (workload, variant, perf_counter() - start), flush=True)
    path.write_text(dumps(ref))


def dumps(ref) -> str:
    """JSON with every list of numbers on one line."""
    text = json.dumps(ref, indent=1)
    return re.sub(r"\[\s*([-+\d.eE,\s]+?)\s*\]",
                  lambda m: "[" + ",".join(x.strip() for x in m.group(1).split(",")) + "]", text) + "\n"


if __name__ == "__main__":
    main()
