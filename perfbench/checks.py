"""Output checks, made outside the timed body.

Every output is compared with the value recorded from commit 56d1876 in
``reference.json``, and where an independent oracle is affordable, with that
oracle too.  The allowed difference is the output's reported error bound plus
the reference's own error; nothing is compared bit for bit.
"""

from __future__ import annotations

import inspect
import json
import math
import runpy
from pathlib import Path

import numpy as np

from workloads import outputs

HERE = Path(__file__).resolve().parent

# Fixture oracles from tests/_frozen.py: (fixture name, operation, output).
# Their own error is taken as the rounding of the stored float.
FROZEN_ORACLES = (
    ("MOMENT2_0_500_ORACLE", "moments.integrate_moment.0_500", "value"),
    ("SMOOTHED_200_20_ORACLE", "moments.smoothed_fourth.200_20", "value"),
)
ORACLE_REL_ERR = 1e-12
# The scan bisects each crossing to an interval of 1e-10 max(1, t); a run's
# crossing and the reference's each lie within half of that of a zero.
BISECTION_WIDTH = 1e-10


def _scan_max_points() -> int:
    from zetalab.scans import sign_change_scan

    return inspect.signature(sign_change_scan).parameters["max_points"].default


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def _close(value, err, ref_value, ref_err) -> bool:
    return math.isfinite(value) and abs(value - ref_value) <= err + ref_err


def e1_at(acc, ts):
    """E1 and its error bound at each t, read from a k=1 accumulator.

    Returns (values, errors, on_grid), where on_grid marks the t that are
    boundaries of the accumulator's mesh; the others are integrated to t.
    """
    from zetalab.moments import p1_exact

    ts = np.asarray(ts, dtype=float)
    bs, cv, _, pe = acc.boundary_grid(float(ts.min()), float(ts.max()))
    if len(bs):
        idx = np.clip(np.searchsorted(bs, ts), 0, len(bs) - 1)
        on_grid = bs[idx] == ts
        vals, errs = cv[idx].copy(), pe[idx].copy()
    else:
        on_grid, vals, errs = np.zeros(len(ts), bool), np.zeros(len(ts)), np.zeros(len(ts))
    for i in np.nonzero(~on_grid)[0]:
        vals[i], _, errs[i], _ = acc.cumulative_to(float(ts[i]))
    main = ts * np.polyval(np.array(p1_exact().coeffs), np.log(ts))
    return vals - main, errs, on_grid


def _check_scan(report, ref: dict):
    """The scan's outputs against the reference's E1, not against its mesh.

    The reference holds E1 with its error bound at the seed's grid points
    (``samples``) and each crossing with E1's error bound and slope there.
    The run's E1 is read at those same t from its own accumulator; margins
    are the run's error bound plus the reference's.
    """
    from zetalab.config import QuadConfig
    from zetalab.quadrature import get_accumulator

    acc = get_accumulator(1, QuadConfig())
    samples = ref["samples"]
    ts, v_ref, e_ref = (np.array(samples[k]) for k in ("t", "E1", "err"))
    v_run, e_run, on_grid = e1_at(acc, ts)
    margin = e_run + e_ref
    bad = np.nonzero(~(np.abs(v_run - v_ref) <= margin))[0]
    if len(bad):
        i = bad[0]
        return "E1(%r) = %r, reference %r (allowed %.3g)" % (
            float(ts[i]), float(v_run[i]), float(v_ref[i]), margin[i])

    # Exceedances: at every reference point that is also a point of the
    # run's grid, reported iff the reference exceeds, unless within margin.
    thresh = report.amplitude * np.power(ts, report.threshold_exponent)
    grid = acc.boundary_grid(*report.t_range)[0]
    v_grid = e1_at(acc, grid)[0]
    thresh_grid = report.amplitude * np.power(grid, report.threshold_exponent)
    for key, sign in (("exceed_plus", 1.0), ("exceed_minus", -1.0)):
        points = getattr(report, key)
        for t, v in points:
            if not sign * v > report.amplitude * t ** report.threshold_exponent:
                return "%s reports (%r, %r), which does not exceed" % (key, t, v)
        reported = {t for t, _ in points}
        exceeds = sign * v_ref > thresh
        # The scan thins a list longer than max_points.
        thinned = np.count_nonzero(sign * v_grid > thresh_grid) > _scan_max_points()
        for i in np.nonzero(on_grid)[0]:
            if (ts[i] in reported) != exceeds[i] and abs(v_ref[i] - sign * thresh[i]) > margin[i]:
                if exceeds[i] and thinned:
                    continue
                return "%s: t=%r %s, reference E1 %r" % (
                    key, float(ts[i]), "reported" if ts[i] in reported else "missing", float(v_ref[i]))

    # Crossings, matched in order; tolerance (run err + reference err) /
    # |E1'| plus the two bisection widths.
    cs, rcs = list(report.crossings), ref["crossings"]
    r_val, r_err, _ = e1_at(acc, rcs) if rcs else ((), (), ())
    unmatched_run = []
    i = j = 0
    while i < len(cs) or j < len(rcs):
        if j < len(rcs):
            width = BISECTION_WIDTH * max(1.0, rcs[j])
            slope = ref["crossing_slope"][j]
            m = r_err[j] + ref["crossing_err"][j]
            tol = m / slope + width if slope > 0 else math.inf
        if i < len(cs) and j < len(rcs) and abs(cs[i] - rcs[j]) <= tol:
            i, j = i + 1, j + 1
        elif j < len(rcs) and (i == len(cs) or rcs[j] < cs[i]):
            # A reference zero the run did not report must still be a zero
            # of the run's E1 within the margin.
            if not abs(r_val[j]) <= m + slope * width:
                return "crossing %r missing: run E1 there %r (allowed %.3g)" % (
                    rcs[j], float(r_val[j]), m + slope * width)
            j += 1
        else:
            unmatched_run.append(cs[i])
            i += 1
    # A crossing that matches none of the reference's: inside one reference
    # grid interval such crossings come in pairs (a pair of zeros the
    # reference's grid passed over), unless E1 at an end is within margin.
    per_interval = {}
    for c in unmatched_run:
        k = int(np.searchsorted(ts, c))
        per_interval.setdefault(k, []).append(c)
    for k, group in per_interval.items():
        ends = [e for e in (k - 1, k) if 0 <= e < len(ts)]
        marginal = len(ends) < 2 or any(abs(v_ref[e]) <= margin[e] for e in ends)
        if len(group) % 2 and not marginal:
            return "crossing %r matches no reference crossing (%d unmatched in [%r, %r])" % (
                group[0], len(group), float(ts[k - 1]), float(ts[k]))
    return None


def check_op(op: str, result, s, ref_outputs: dict, extra: dict):
    """None if the operation's outputs pass, else the reason it failed."""
    if op.startswith("scans."):
        return _check_scan(result, ref_outputs)
    got = outputs(op, result, s)
    for key, ref in ref_outputs.items():
        if key not in got:
            return "output %s missing" % key
        value, err = got[key]
        if not _close(value, err, ref[0], ref[1]):
            return "%s = %r, reference %r (allowed %.3g)" % (key, value, ref[0], err + ref[1])
        oracle = extra.get((op, key))
        if oracle is not None and not _close(value, err, oracle[0], oracle[1]):
            return "%s = %r, oracle %r (allowed %.3g)" % (key, value, oracle[0], err + oracle[1])
    return None


def oracles(reference: dict, root: Path) -> dict:
    """(op, output) -> (value, own error) for the independent oracles."""
    frozen = runpy.run_path(str(root / "tests" / "_frozen.py"))
    out = {}
    for name, op, key in FROZEN_ORACLES:
        value = float(frozen[name])
        out[(op, key)] = (value, ORACLE_REL_ERR * abs(value))
    window = reference["oracles"]["e2_window"]
    out[("moments.integrate_moment.window", "value")] = (window["value"], window["err"])
    return out


def check_iteration(s, ref_outputs: dict, extra: dict) -> list:
    """(operation, failure reason or None) for every call of one iteration."""
    checked = []
    for op, result, error in s.ops:
        if error is None:
            if op not in ref_outputs:
                error = "no reference recorded"
            else:
                try:
                    error = check_op(op, result, s, ref_outputs[op], extra)
                except Exception as exc:  # an output that cannot be read fails its check
                    error = "%s: %s" % (type(exc).__name__, exc)
        checked.append((op, error))
    return checked
