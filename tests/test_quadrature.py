"""The panel rule, its integration matrices and the accumulator's queries."""

import mpmath
import numpy as np
import pytest

from zetalab import zkernel
from zetalab.errors import DomainError
import zetalab.quadrature as quadrature
from zetalab.config import QuadConfig
from zetalab.moments import error_term, main_term, p1_exact
from zetalab.quadrature import (
    MomentAccumulator, PanelBatch, get_accumulator, gl_nodes, integration_matrix, kronrod_rule)
from zetalab.zkernel import moment_integrand


def scalar_query(acc, t, cfg):
    """int_0^t as one prefix sum plus one partial panel integrated alone."""
    i = acc.n_panels_to(t)
    out = [float(p[i]) for p in acc.prefix()]
    left = acc.bounds[i]
    if t > left:
        batch = PanelBatch(lambda u: moment_integrand(u, acc.k), cfg)
        out = [o + float(d[0]) for o, d in zip(out, batch.run([left], [t]))]
    return tuple(out)


class TestCumulativeAt:
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_scalar_queries_bit_for_bit(self, k, cfg):
        acc = get_accumulator(k, cfg)
        acc.ensure(3000.0)
        rng = np.random.default_rng(7 + k)
        ts = np.concatenate([
            rng.uniform(0.0, 3000.0, 150),   # EM and RS branches, inside panels
            np.array(acc.bounds[1::211]),     # on mesh boundaries
            [0.0, 399.9, 400.1],
        ])
        rng.shuffle(ts)
        batched = acc.cumulative_at(ts)
        for j, t in enumerate(ts.tolist()):
            got = tuple(q[j] for q in batched)
            assert got == acc.cumulative_to(t) == scalar_query(acc, t, cfg), t

    def test_zero_empty_and_negative(self, cfg):
        acc = get_accumulator(1, cfg)
        v, vu, e, eu = acc.cumulative_at([0.0, 0.0])
        assert v.tolist() == vu.tolist() == e.tolist() == eu.tolist() == [0.0, 0.0]
        assert all(q.size == 0 for q in acc.cumulative_at([]))
        with pytest.raises(DomainError):
            acc.cumulative_at([1.0, -1e-9])

    def test_extends_the_mesh_to_the_largest_t(self, cfg):
        acc = get_accumulator(1, cfg)
        t = acc.bounds[-1] + 7.25
        v = acc.cumulative_at([10.0, t])[0]
        assert acc.bounds[-1] >= t
        assert v[1] > v[0] > 0.0


class TestMesh:
    def test_scalar_recurrence_with_cap(self, cfg):
        b = quadrature.mesh(3.0, 40.0, cfg, cap=0.7)
        assert b[0] == 3.0 and b[-2] < 40.0 <= b[-1]
        for x, y in zip(b[:-1].tolist(), b[1:].tolist()):
            assert y == x + min(quadrature.panel_width(x, cfg), 0.7)
        assert quadrature.mesh(5.0, 5.0, cfg).tolist() == [5.0]

    def test_panel_mesh_takes_every_fourth_cell(self, cfg):
        residues = set()
        for t1 in (40.0, 41.0, 42.0, 43.0):
            cells = quadrature.mesh(3.0, t1, cfg, cap=0.7)
            residues.add((len(cells) - 1) % 4)
            b = quadrature.panel_mesh(3.0, t1, cfg, cap=0.7)
            assert b[-2] < t1 <= b[-1]
            # cells are appended by the same recurrence up to a multiple of four
            assert b.tolist() == quadrature.mesh(3.0, b[-1], cfg, cap=0.7)[::4].tolist()
            assert b.tolist() == cells[::4].tolist() or (len(cells) - 1) % 4
        assert residues == {0, 1, 2, 3}
        assert quadrature.panel_mesh(5.0, 5.0, cfg).tolist() == [5.0]

    def test_accumulator_bounds_are_one_mesh(self, cfg):
        # panels four cells wide, independent of how far earlier calls integrated
        acc = MomentAccumulator(1, cfg)
        acc.ensure(700.0)
        acc.ensure(2100.0)
        whole = MomentAccumulator(1, cfg)
        whole.ensure(2100.0)
        assert acc.bounds.tolist() == whole.bounds.tolist()
        assert acc.bounds.tolist() == quadrature.mesh(0.0, acc.bounds[-1], cfg)[::4].tolist()
        for p, q in zip(acc.prefix(), whole.prefix()):
            assert p.tolist() == q.tolist()
        assert len(acc.bounds) == len(acc.prefix()[0])


def mp_cumulative(k, ts, dps=15):
    """Independent oracle: mpmath tanh-sinh quadrature of siegelz^2k from
    ts[0] to each of ts[1:], piece by piece."""
    with mpmath.workdps(dps):
        pieces = [mpmath.quad(lambda t: mpmath.siegelz(t) ** (2 * k), [a, b]) for a, b in zip(ts, ts[1:])]
        return [float(x) for x in np.cumsum(pieces)]


class TestBoundaryGrid:
    @pytest.mark.parametrize("t0, t1", [(0.0, 150.0), (123.4, 567.8)])
    def test_every_cell_boundary_with_the_error_term_there(self, t0, t1, cfg):
        acc = get_accumulator(1, cfg)
        bs, cv, cu, ce = acc.boundary_grid(t0, t1)
        cells = quadrature.mesh(0.0, t1, cfg)
        assert bs.tolist() == cells[(cells >= t0) & (cells <= t1)].tolist()
        poly = p1_exact()
        on_panel = np.isin(bs, acc.bounds)
        assert 0 < np.count_nonzero(on_panel) < len(bs)
        for t, v, vu, e, edge in zip(bs.tolist(), cv.tolist(), cu.tolist(), ce.tolist(), on_panel):
            got = acc.cumulative_to(t)
            if edge:
                # at a panel boundary, the prefix sums themselves
                res = error_term(1, t, cfg)
                assert (v - main_term(1, t, poly), e) == (res.value, res.err_bound), t
                assert vu == got[1], t
            else:
                # inside, the interpolant of the panel's samples: within the
                # two bounds of the partial-panel integral
                assert abs(v - got[0]) <= e + got[2], t
                assert abs(vu - got[1]) <= t * (e + got[2]), t

    @pytest.mark.parametrize("k, t", [(1, 100.0), (2, 410.0)], ids=["em", "rs"])
    def test_interior_bound_covers_the_oracle(self, k, t, cfg):
        # one panel of the Euler-Maclaurin branch (t < 400) and one of the
        # Riemann-Siegel branch; the grid's charge above the prefix bound at
        # the panel's left end covers the integral from there
        acc = get_accumulator(k, cfg)
        acc.ensure(t + 10.0)
        i = acc.index(t)
        left, right = float(acc.bounds[i]), float(acc.bounds[i + 1])
        assert (left >= zkernel.T_SWITCH) == (right > zkernel.T_SWITCH) == (k == 2)
        bs, cv, _, ce = acc.boundary_grid(left, right)
        assert len(bs) == 5 and (bs[0], bs[-1]) == (left, right)
        oracle = mp_cumulative(k, bs[:-1].tolist())
        for x, v, e, want in zip(bs[1:-1].tolist(), cv[1:-1].tolist(), ce[1:-1].tolist(), oracle):
            assert abs((v - cv[0]) - want) <= e - ce[0], x

    def test_z_is_evaluated_once_per_panel_met(self, cfg, monkeypatch):
        acc = get_accumulator(1, cfg)
        acc.ensure(1500.0)
        i, j = acc.index(500.0), acc.index(1500.0)
        points = [0]
        real = zkernel.z_block

        def counted(t):
            points[0] += np.size(t)
            return real(t)

        monkeypatch.setattr(zkernel, "z_block", counted)
        bs, *_ = acc.boundary_grid(float(acc.bounds[i]), float(acc.bounds[j]))
        assert len(bs) == 4 * (j - i) + 1
        assert points[0] == (2 * cfg.nodes + 1) * (j - i)

    def test_panel_whose_first_rule_is_rejected_reads_cumulative_to(self):
        cfg = QuadConfig(panel_rel=1e-12, panel_abs=1e-12)
        acc = MomentAccumulator(2, cfg)
        bs, cv, cu, ce = acc.boundary_grid(600.0, 700.0)
        i = np.searchsorted(acc.bounds, bs, side="right") - 1
        a, b = acc.bounds[:-1], acc.bounds[1:]
        k, _, diff, _, _ = PanelBatch(acc._integrand, cfg)._panel_pair(a, b)
        rejected = (diff > np.maximum(cfg.panel_abs, cfg.panel_rel * np.abs(k)))[np.minimum(i, len(a) - 1)]
        inside = bs != acc.bounds[i]
        assert np.any(inside & rejected) and np.any(inside & ~rejected)
        for t, v, vu, e in zip(bs[inside & rejected].tolist(), cv[inside & rejected].tolist(),
                               cu[inside & rejected].tolist(), ce[inside & rejected].tolist()):
            assert (v, vu, e) == acc.cumulative_to(t)[:3], t


class TestRefinement:
    @pytest.mark.parametrize("k", [1, 2])
    def test_four_cell_panels_need_no_refinement(self, k, cfg, monkeypatch):
        # above the first panel [0, 4 w_max], whose cells are capped at w_max
        # and which is split, every panel takes exactly one rule
        rules = [0]
        real = PanelBatch._panel_pair

        def counted(self, a, b):
            rules[0] += int(np.count_nonzero(a >= 4.0 * cfg.w_max))
            return real(self, a, b)

        monkeypatch.setattr(PanelBatch, "_panel_pair", counted)
        acc = MomentAccumulator(k, cfg)
        acc.ensure(2.0e4)
        assert acc.bounds[1] == 4.0 * cfg.w_max
        assert rules[0] == len(acc.bounds) - 2


def loop_run(batch, lefts, rights):
    """PanelBatch.run as a per-item loop: the reference for its array form."""
    cfg = batch.cfg
    out = [np.zeros(len(lefts)) for _ in range(4)]
    work = [(i, lefts[i], rights[i], 0) for i in range(len(lefts))]
    while work:
        idx, a, b, depth = (np.array(c) for c in zip(*work))
        k, ku, diff, e, eu = batch._panel_pair(a, b)
        accept = (diff <= np.maximum(cfg.panel_abs, cfg.panel_rel * np.abs(k))) | (depth >= cfg.max_depth)
        for j in np.nonzero(accept)[0]:
            for total, q in zip(out, (k, ku, e, eu)):
                total[idx[j]] += q[j]
        work = []
        for j in np.nonzero(~accept)[0]:
            mid = 0.5 * (a[j] + b[j])
            work += [(idx[j], a[j], mid, depth[j] + 1), (idx[j], mid, b[j], depth[j] + 1)]
    return out


class TestPanelBatch:
    @pytest.mark.parametrize("cfg", [QuadConfig(), QuadConfig(panel_rel=1e-13, panel_abs=1e-12, max_depth=3)])
    def test_run_equals_the_loop_reference_bit_for_bit(self, cfg, monkeypatch):
        acc = MomentAccumulator(2, cfg)
        acc.ensure(1200.0)
        lefts, rights = acc.bounds[:-1], acc.bounds[1:]
        pairs = [0]
        real = PanelBatch._panel_pair

        def counted(self, a, b):
            pairs[0] += len(a)
            return real(self, a, b)

        monkeypatch.setattr(PanelBatch, "_panel_pair", counted)
        batch = PanelBatch(acc._integrand, cfg)
        got = batch.run(lefts, rights)
        assert pairs[0] > len(lefts)   # some panels were split
        want = loop_run(batch, lefts, rights)
        for g, w in zip(got, want):
            assert g.tolist() == w.tolist()


class TestKronrodRule:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_gauss_subset_is_the_gauss_rule(self, n):
        x, _, wg = kronrod_rule(n)
        xg, wgg = gl_nodes(n)
        assert x.size == 2 * n + 1
        assert x[1::2].tolist() == xg.tolist() and wg.tolist() == wgg.tolist()

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_exact_to_degree_3n_plus_1(self, n):
        # 2n+1 nodes containing the Gauss nodes, exact to degree 3n+1: this
        # pins the Kronrod extension uniquely
        x, wk, _ = kronrod_rule(n)
        for d in range(3 * n + 2):
            exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
            assert abs(np.sum(wk * x**d) - exact) <= 1e-14, d

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_positive_weights_increasing_nodes(self, n):
        x, wk, wg = kronrod_rule(n)
        assert np.all(wk > 0) and np.all(wg > 0)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0

    def test_unrefined_panel_costs_2n_plus_1_points(self, monkeypatch):
        count = [0]
        real = quadrature.moment_integrand

        def counting(t, *args):
            count[0] += np.size(t)
            return real(t, *args)

        monkeypatch.setattr(quadrature, "moment_integrand", counting)
        for cfg in (QuadConfig(panel_abs=1e300), QuadConfig(nodes=8, panel_abs=1e300)):
            count[0] = 0
            acc = MomentAccumulator(2, cfg)
            acc.ensure(600.0)
            assert count[0] == (2 * cfg.nodes + 1) * (len(acc.bounds) - 1)


class TestIntegrationMatrix:
    @staticmethod
    def check(x):
        s = integration_matrix(x)
        for d in range(len(x)):
            exact = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert np.max(np.abs(s @ x**d - exact)) <= 1e-14, d

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_integrates_monomials_to_each_node(self, n):
        self.check(gl_nodes(n)[0])

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_integrates_monomials_to_each_kronrod_node(self, n):
        self.check(kronrod_rule(n)[0])
