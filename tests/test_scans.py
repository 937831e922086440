"""Sign-change scans and the E2 zero-gap table."""

import math

import numpy as np
import pytest

from zetalab import scans
from zetalab.errors import DomainError
from zetalab.moments import error_term, integral_of_e2
from zetalab.quadrature import PanelBatch, get_accumulator
from zetalab.scans import SLACK_ROUNDS, _refine_zeros, e2_zero_gap_table, sign_change_scan

# The scalar value of each scan target at t.
POINT = {
    "e1": lambda t, cfg: error_term(1, t, cfg).value,
    "e2": lambda t, cfg: error_term(2, t, cfg).value,
    "intE2": lambda t, cfg: integral_of_e2(t, cfg).value,
}


def sample(monkeypatch, fn):
    """Make the scan read fn on a uniform grid in place of its target."""
    def values(target, cfg, t0, t1, poly):
        grid = np.linspace(t0, t1, 4096)
        return grid, fn(grid), fn

    monkeypatch.setattr(scans, "_target_values", values)


class TestSignChangeScan:
    def test_constant_sign_hook_empty_crossings(self, cfg, monkeypatch):
        sample(monkeypatch, np.ones_like)
        rep = sign_change_scan("e1", 10.0, 20.0, 1.0, 0.25, cfg)
        assert rep.crossings == ()
        assert rep.exceed_minus == ()

    def test_hook_exceedances_follow_threshold(self, cfg, monkeypatch):
        sample(monkeypatch, lambda t: t)
        rep = sign_change_scan("e2", 1.0, 2.0, 0.5, 0.0, cfg)  # values t vs += 0.5
        assert all(v > 0.5 for _, v in rep.exceed_plus)
        assert rep.exceed_minus == ()

    def test_e1_exceedances_reevaluate(self, cfg):
        rep = sign_change_scan("e1", 500.0, 1200.0, 0.5, 0.25, cfg)
        assert rep.exceed_plus or rep.exceed_minus
        poly = rep and None
        for t, v in (rep.exceed_plus[:3] + rep.exceed_minus[:3]):
            again = error_term(1, t, cfg).value
            assert abs(again - v) < 1e-6
            assert abs(v) > 0.5 * t**0.25

    def test_e1_crossings_are_zeros(self, cfg):
        rep = sign_change_scan("e1", 500.0, 700.0, math.inf, 0.0, cfg)
        assert len(rep.crossings) > 5
        for u in rep.crossings[:5]:
            # the refined point is a genuine sign change at small scale
            lo = error_term(1, u - 1e-4, cfg).value
            hi = error_term(1, u + 1e-4, cfg).value
            assert lo * hi <= 0

    def test_int_e2_target_consistency(self, cfg):
        rep = sign_change_scan("intE2", 200.0, 400.0, math.inf, 0.0, cfg)
        # grid values match the integral evaluator at a boundary point
        t_probe = 300.0
        direct = integral_of_e2(t_probe, cfg)
        # re-evaluate through the scan's own point function by bisection probe:
        # crossings, if any, must have small |intE2|
        for u in rep.crossings[:3]:
            v = integral_of_e2(u, cfg)
            assert abs(v.value) < 1e-3 * max(1.0, abs(direct.value))

    @pytest.mark.parametrize("target, t0, t1", [
        ("e1", 500.0, 700.0), ("e2", 500.0, 650.0), ("intE2", 1600.0, 1750.0)])
    def test_crossings_bracket_a_sign_change(self, target, t0, t1, cfg):
        rep = sign_change_scan(target, t0, t1, math.inf, 0.0, cfg)
        assert rep.crossings
        point = POINT[target]
        for u in rep.crossings:
            # The bracket [lo, hi] has hi - lo <= 1e-10 max(1, lo) and u as
            # its midpoint, so it lies inside [u - h, u + h].
            h = 0.5e-10 * max(1.0, u)
            lo, mid, hi = (point(x, cfg) for x in (u - h, u, u + h))
            assert mid == 0.0 or lo * hi < 0, (u, lo, hi)

    def test_refinement_is_batched(self, cfg, monkeypatch):
        get_accumulator(1, cfg).ensure(700.0)
        calls = []
        run = PanelBatch.run

        def counted(self, lefts, rights):
            calls.append(len(lefts))
            return run(self, lefts, rights)

        monkeypatch.setattr(PanelBatch, "run", counted)
        rep = sign_change_scan("e1", 500.0, 700.0, math.inf, 0.0, cfg)
        # the grid reads its cell boundaries from the panels' own samples,
        # so every run is a refinement round
        assert len(rep.crossings) > 5
        assert len(calls) <= 30
        assert calls[0] == len(rep.crossings)

    def test_bad_inputs(self, cfg):
        with pytest.raises(DomainError):
            sign_change_scan("e1", 10.0, 5.0, 1.0, 0.25, cfg)
        with pytest.raises(DomainError):
            sign_change_scan("e9", 1.0, 5.0, 1.0, 0.25, cfg)


class TestZeroGapTable:
    def test_rows_well_formed(self, cfg):
        rows = e2_zero_gap_table(500.0, 650.0, cfg)
        assert len(rows) >= 3
        for n, u_n, gap, stat in rows:
            assert gap > 0
            assert abs(stat - math.log(gap) / math.log(u_n)) < 1e-12
        # zeros strictly increasing
        us = [r[1] for r in rows]
        assert all(b > a for a, b in zip(us, us[1:]))


class TestRefineZeros:
    @pytest.mark.parametrize("f, a, b, root", [
        (np.sin, 3.0, 4.0, math.pi),
        (lambda t: np.tanh(50.0 * (t - 3.3)), 0.0, 10.0, 3.3),
        (lambda t: (t - 2.7) ** 3, 0.0, 10.0, 2.7),
        (lambda t: np.where(t < 1.9, -1.0, t), 0.0, 10.0, 1.9),
    ])
    def test_bracket_meets_the_width_contract(self, f, a, b, root):
        rounds = []

        def points(ts):
            rounds.append(len(ts))
            return f(ts)

        lo, hi = _refine_zeros(points, [a], [b], [f(a)], [f(b)])
        assert hi[0] - lo[0] <= 1e-10 * max(1.0, lo[0])
        assert f(lo[0]) * f(hi[0]) < 0
        assert lo[0] - 1e-15 <= root <= hi[0] + 1e-15
        # Never more than SLACK_ROUNDS beyond what bisection alone would take.
        assert len(rounds) <= math.ceil(math.log2((b - a) / 1e-10)) + SLACK_ROUNDS

    def test_all_brackets_refined_together(self):
        ks = np.arange(1.0, 40.0)
        a, b = ks * math.pi - 1.0, ks * math.pi + 0.5
        rounds = []

        def points(ts):
            rounds.append(len(ts))
            return np.sin(ts)

        lo, hi = _refine_zeros(points, a, b, np.sin(a), np.sin(b))
        assert np.all(hi - lo <= 1e-10 * np.maximum(1.0, lo))
        assert np.all((lo <= ks * math.pi + 1e-13) & (ks * math.pi - 1e-13 <= hi))
        assert rounds[0] == len(ks) and len(rounds) <= 10

    def test_exact_zero_closes_the_bracket(self):
        lo, hi = _refine_zeros(lambda ts: ts - 1.5, [1.0], [2.0], [-0.5], [0.5])
        assert lo[0] == hi[0] == 1.5
