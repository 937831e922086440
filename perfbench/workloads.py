"""The benchmark's three workloads.

Each workload turns a seed into inputs, runs a timed body of public zetalab
calls, and names every output so that it can be checked against
``reference.json`` outside the timed body.

Seeds map onto ``VARIANTS`` input variants (variant = seed mod VARIANTS).
Each variant perturbs the workload's inputs upwards by a fraction drawn
uniformly from the ranges in ``PERTURBATION``; ``reference.json`` holds the
outputs of every variant as recorded from commit 56d1876.
"""

from __future__ import annotations

import csv
import math
import random
import shutil
from pathlib import Path

VARIANTS = 16

# Relative upward perturbation of each input, drawn per variant from [0, x).
PERTURBATION = {
    "e2_frontier": {"T_first": 0.01, "T_resume": 0.01},
    "functionals_5k": {"T": 0.01, "sigma": 0.02},
    "e1_scan": {"t_end": 0.01},
}

# P4 pinned by the benchmark: the closed-form a4, a3 and the lower
# coefficients packaged at commit 56d1876, as literals, so that a change
# to the package's own P4 moves no benchmark output.
P4_COEFFS = (
    0.05066059182116889,
    0.12379575807889981,
    -2.151153184528235,
    22.217989431223685,
    -77.63051485527106,
)

SNAPSHOTS = (1000.0, 2000.0, 3000.0, 4000.0)
SIGMA_LO, SIGMA_HI, SIGMA_POINTS = 6e-3, 3e-2, 6
SMOOTHED_PAIRS = ((200.0, 20.0), (1000.0, 50.0), (3000.0, 100.0))

# Short window at the top of the e2_frontier range, below every variant's
# resume target, checked against tanh-sinh quadrature of siegelz^4.
ORACLE_WINDOW = (29999.0, 30000.0)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _draws(workload: str, variant: int) -> dict:
    rng = random.Random("%s:%d" % (workload, variant))
    return {key: width * rng.random() for key, width in PERTURBATION[workload].items()}


def make_inputs(workload: str, variant: int) -> dict:
    """The inputs of one variant; the same variant always gives the same inputs."""
    u = _draws(workload, variant)
    if workload == "e2_frontier":
        return {"T_first": 15000.0 * (1 + u["T_first"]), "T_resume": 30000.0 * (1 + u["T_resume"])}
    if workload == "functionals_5k":
        ratio = (SIGMA_HI / SIGMA_LO) ** (1.0 / (SIGMA_POINTS - 1))
        sigmas = [SIGMA_LO * ratio**i * (1 + u["sigma"]) for i in range(SIGMA_POINTS)]
        return {"T": 5000.0 * (1 + u["T"]), "sigmas": sigmas}
    if workload == "e1_scan":
        return {"t_start": 10.0, "t_end": 2000.0 * (1 + u["t_end"]), "A": 1.0, "exp": 0.25}
    raise KeyError(workload)


class Harness:
    """zetalab modules plus the per-iteration record of public calls.

    Every call goes through a module attribute, so that the traced run's
    wrappers see it.  ``call`` records each operation with its result or the
    exception it raised; nothing is checked while the body is timed.
    """

    def __init__(self, workdir: Path):
        from zetalab import cli, laplace, moments, quadrature, scans, spectral
        from zetalab.moments import USER, MomentPolynomial

        self.cli, self.moments, self.laplace = cli, moments, laplace
        self.quadrature, self.scans, self.spectral = quadrature, scans, spectral
        self.p4 = MomentPolynomial(k=2, coeffs=P4_COEFFS, provenance=(USER,) * 5)
        self.dataset = spectral.load_spectral_dataset()
        self.workdir = workdir
        self.ops = []

    def call(self, op, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            self.ops.append((op, None, "%s: %s" % (type(exc).__name__, exc)))
            return None
        self.ops.append((op, result, None))
        return result

    def reset(self):
        """State of a fresh process: no accumulators, no checkpoint files."""
        self.ops = []
        self.quadrature.clear_accumulators()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)


def body(workload: str, s: Harness, inp: dict):
    """The timed body of one iteration."""
    if workload == "e2_frontier":
        ckpt = str(s.workdir / "moment.ckpt")
        for op, t, extra in (("cli.moment.first", inp["T_first"], []),
                             ("cli.moment.resume", inp["T_resume"], ["--resume"])):
            out = str(s.workdir / (op + ".csv"))
            argv = ["moment", "--k", "2", "--T", repr(t), "--checkpoint", ckpt,
                    "--format", "csv", "--out", out] + extra
            s.call(op, s.cli.main, argv)
            if op == "cli.moment.first":
                # A new process would start with no accumulators.
                s.quadrature.clear_accumulators()
        t = inp["T_resume"]
        s.call("moments.error_term.e2", s.moments.error_term, 2, t, poly=s.p4)
        s.call("moments.integral_of_e2", s.moments.integral_of_e2, t, poly=s.p4)
    elif workload == "functionals_5k":
        t = inp["T"]
        s.call("moments.error_term.e1", s.moments.error_term, 1, t)
        s.call("moments.error_term.e2", s.moments.error_term, 2, t, poly=s.p4)
        s.call("moments.integrate_moment.0_500", s.moments.integrate_moment, 2, 0.0, 500.0)
        s.call("moments.integral_of_e2", s.moments.integral_of_e2, t, poly=s.p4)
        s.call("moments.mean_square_e2", s.moments.mean_square_e2, t, poly=s.p4,
               snapshots=list(SNAPSHOTS))
        s.call("laplace.grid.k1", s.laplace.laplace_moment_grid, 1, inp["sigmas"])
        s.call("laplace.grid.k2", s.laplace.laplace_moment_grid, 2, inp["sigmas"])
        for tc, delta in SMOOTHED_PAIRS:
            tag = "%g_%g" % (tc, delta)
            s.call("moments.smoothed_fourth." + tag, s.moments.smoothed_fourth, tc, delta)
            s.call("spectral.motohashi." + tag, s.spectral.motohashi_spectral_sum,
                   tc, delta, s.dataset)
    elif workload == "e1_scan":
        s.call("scans.sign_change_scan.e1", s.scans.sign_change_scan, "e1",
               inp["t_start"], inp["t_end"], inp["A"], inp["exp"])
    else:
        raise KeyError(workload)


def after_body(workload: str, s: Harness):
    """Calls made after the timed body for the independent oracle check."""
    if workload == "e2_frontier":
        a, b = ORACLE_WINDOW
        s.call("moments.integrate_moment.window", s.moments.integrate_moment, 2, a, b)


def _read_cli_row(path: Path) -> dict:
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != 1:
        raise ValueError("expected one output row in %s, got %d" % (path.name, len(rows)))
    return {key: float(val) for key, val in rows[0].items()}


def outputs(op: str, result, s: Harness) -> dict:
    """Named outputs of one operation: name -> (value, err).

    A scan's report is checked as a whole (``checks._check_scan``).
    """
    if op.startswith("cli.moment."):
        if result != 0:
            raise ValueError("exit code %r" % (result,))
        row = _read_cli_row(s.workdir / (op + ".csv"))
        if not (math.isfinite(row["err_bound"]) and row["err_bound"] > 0):
            raise ValueError("err_bound %r is not a positive number" % row["err_bound"])
        return {"integral": (row["integral"], row["err_bound"])}
    if op.startswith("moments.mean_square_e2"):
        res, table = result
        out = {"value": (res.value, res.err_bound)}
        for t, v, _ in table:
            out["snapshot_%g" % t] = (v, res.err_bound)
        return out
    if op.startswith("laplace.grid"):
        return {"L_%d" % i: (r.value, r.err_bound) for i, r in enumerate(result)}
    if op.startswith("spectral.motohashi"):
        # A finite sum over the dataset: its error against another evaluation
        # of the same sum is rounding on the terms' scale.  The truncation
        # bound measures the distance to the infinite sum instead.
        scale = sum(abs(x) for x in result.terms)
        return {"value": (result.value, 1e-12 * scale),
                "terms_used": (float(result.terms_used), 0.0)}
    # ErrorTermResult and IntegralResult
    return {"value": (result.value, result.err_bound)}
