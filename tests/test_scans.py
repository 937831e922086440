"""Sign-change scans and the E2 zero-gap table."""

import dataclasses
import math

import numpy as np
import pytest

from zetalab import scans, zkernel
from zetalab.config import QuadConfig
from zetalab.errors import DomainError
from zetalab.moments import error_term, integral_of_e2, p1_exact
from zetalab.quadrature import (
    MomentAccumulator, PanelBatch, clear_accumulators, drop_accumulator, get_accumulator)
from zetalab.scans import SLACK_ROUNDS, _refine_zeros, e2_zero_gap_table, sign_change_scan

# The scalar value of each scan target at t.
POINT = {
    "e1": lambda t, cfg: error_term(1, t, cfg).value,
    "e2": lambda t, cfg: error_term(2, t, cfg).value,
    "intE2": lambda t, cfg: integral_of_e2(t, cfg).value,
}


def sample(monkeypatch, fn):
    """Make the scan read fn on a uniform grid in place of its target, with
    its sign changes between grid points as the brackets."""
    def values(target, cfg, t0, t1, poly):
        grid = np.linspace(t0, t1, 4096)
        v = fn(grid)
        flips = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
        return grid, v, (grid[flips], grid[flips + 1], v[flips], v[flips + 1]), fn

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

    @pytest.mark.parametrize("coarse", [False, True], ids=["default", "coarse"])
    def test_rounds_read_the_grid_pass_samples(self, coarse, cfg, monkeypatch):
        # After the grid pass the rounds call neither the kernel nor
        # PanelBatch.run, on a coarse mesh too: every panel has one rule.
        if coarse:
            cfg = QuadConfig(gap_fraction=1.0)
        get_accumulator(2, cfg).ensure(700.0)
        grid_done, runs, in_run, loose_points = [], [], [0], []
        grid, run, z_block = MomentAccumulator.boundary_grid, PanelBatch.run, zkernel.z_block

        def grid_pass(self, *args):
            out = grid(self, *args)
            grid_done.append(True)
            return out

        def counted_run(self, lefts, rights, samples=None):
            if grid_done:
                runs.append(np.asarray(lefts).tolist())
            in_run[0] += 1
            try:
                return run(self, lefts, rights, samples)
            finally:
                in_run[0] -= 1

        def counted_z(t):
            # a kernel call after the grid pass outside a PanelBatch.run
            if grid_done and not in_run[0]:
                loose_points.append(np.size(t))
            return z_block(t)

        monkeypatch.setattr(MomentAccumulator, "boundary_grid", grid_pass)
        monkeypatch.setattr(PanelBatch, "run", counted_run)
        monkeypatch.setattr(zkernel, "z_block", counted_z)
        rep = sign_change_scan("e2", 500.0, 650.0, math.inf, 0.0, cfg)
        assert len(rep.crossings) > 3
        assert loose_points == []
        assert runs == []

    def test_scan_evaluates_each_node_once(self, cfg, monkeypatch):
        points = [0]
        real = zkernel.z_block

        def counted(t):
            points[0] += np.size(t)
            return real(t)

        monkeypatch.setattr(zkernel, "z_block", counted)
        clear_accumulators()
        MomentAccumulator(1, cfg).ensure(2000.0)
        own = points[0]
        points[0] = 0
        clear_accumulators()  # the scan starts from a cold store as well
        sign_change_scan("e1", 10.0, 2000.0, 1.0, 0.25, cfg)
        assert 0 < points[0] <= 1.05 * own

    def test_scan_leaves_the_sums_of_a_plain_ensure(self, cfg):
        drop_accumulator(1, cfg)
        sign_change_scan("e1", 10.0, 2000.0, 1.0, 0.25, cfg)
        acc, plain = get_accumulator(1, cfg), MomentAccumulator(1, cfg)
        plain.ensure(2000.0)
        assert acc.bounds.tolist() == plain.bounds.tolist()
        assert [q.tolist() for q in acc._sums()] == [q.tolist() for q in plain._sums()]
        every = np.arange(len(plain.bounds))
        assert acc.rows(every) == plain.rows(every)

    def test_crossings_do_not_depend_on_the_window(self, cfg):
        short = sign_change_scan("e1", 10.0, 1000.0, math.inf, 0.0, cfg).crossings
        long = sign_change_scan("e1", 10.0, 2000.0, math.inf, 0.0, cfg).crossings
        assert [c for c in short if c < 990.0] == [c for c in long if c < 990.0]

    def test_every_sign_change_of_a_finer_grid_is_found(self, cfg):
        # The brackets start at the Gauss-Kronrod nodes, so close pairs of
        # crossings that the cell grid passes over are found: every sign
        # change between neighbours of the cells at a quarter of the zero
        # gap (half the default width) holds an odd number of crossings.
        crossings = np.array(sign_change_scan("e1", 10.0, 2000.0, math.inf, 0.0, cfg).crossings)
        fine = dataclasses.replace(cfg, gap_fraction=0.5 * cfg.gap_fraction)
        bs, cv, _, _ = MomentAccumulator(1, fine).boundary_grid(10.0, 2000.0)
        sign = np.sign(cv - bs * np.polyval(np.array(p1_exact().coeffs), np.log(bs)))
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        inside = np.searchsorted(crossings, bs[flips + 1]) - np.searchsorted(crossings, bs[flips])
        assert len(flips) > 330 and np.all(inside % 2 == 1)

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
