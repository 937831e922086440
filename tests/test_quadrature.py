"""The panel rule, its integration matrices and the accumulator's queries."""

import functools
import math

import mpmath
import numpy as np
import pytest

from zetalab import zkernel
from zetalab.errors import CheckpointMismatch, DomainError
import zetalab.quadrature as quadrature
from zetalab.config import QuadConfig
from zetalab.moments import error_term, main_term, p1_exact, smoothed_fourth
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


@functools.cache
def mp_cell_end_oracle(gap_fraction):
    """Independent oracle of the mesh from 0 at 30 digits: i -> F^-1(i), F(t)
    = int_0^t ds/w(s) with w(t) = min(gap_fraction 2pi / max(log(t/2pi), 1),
    2^floor(log2 max(t, 1)) / 4, 2), by mpmath quadrature between the kinks
    of w (the powers of 2, 2pi e and where the terms meet), its root by
    findroot from a guess."""
    with mpmath.workdps(30):
        two_pi = 2 * mpmath.pi
        g0 = two_pi * mpmath.mpf(gap_fraction)

        def inv_w(s):
            grade = mpmath.ldexp(mpmath.mpf(0.25), int(mpmath.floor(mpmath.log(max(s, 1), 2))))
            return 1 / min(g0 / max(mpmath.log(s / two_pi), 1), grade, 2)

        kinks = sorted({mpmath.mpf(2) ** k for k in range(1, 30)} | {two_pi * mpmath.e}
                       | {two_pi * mpmath.exp(g0 / mpmath.ldexp(mpmath.mpf(0.25), k)) for k in range(4)})
        starts = [mpmath.mpf(0)] + [x for x in kinks if x < 2**29]
        at_starts = [mpmath.mpf(0)]
        for a, b in zip(starts, starts[1:]):
            at_starts.append(at_starts[-1] + mpmath.quad(inv_w, [a, b]))

    def cell_end(i, guess):
        with mpmath.workdps(30):
            def f(t):
                j = max(k for k, a in enumerate(starts) if a <= t)
                return at_starts[j] + mpmath.quad(inv_w, [starts[j], t]) - i
            return mpmath.findroot(f, mpmath.mpf(guess))

    return cell_end


def last_panel_below_rs_t_max(cfg):
    """The index of the last panel boundary below RS_T_MAX."""
    p = quadrature.first_panel(zkernel.RS_T_MAX - 1000.0, cfg)
    while quadrature.panel_bounds([p + 1], cfg)[0] < zkernel.RS_T_MAX:
        p += 1
    return p


class TestMesh:
    @pytest.mark.parametrize("gap_fraction", [0.5, 0.05, 2.0])
    def test_cell_ends_match_the_mpmath_oracle(self, gap_fraction):
        # every piece start of w, the cells either side of it, and indices
        # up to the last cell below RS_T_MAX (about 4.96e8 at the default)
        c = QuadConfig(gap_fraction=gap_fraction)
        starts = quadrature._pieces(gap_fraction)[1]
        last = last_panel_below_rs_t_max(c) * quadrature.CELLS
        rng = np.random.default_rng(11)
        idx = np.unique(np.concatenate([
            np.ceil(starts), np.ceil(starts) + 1, np.floor(starts[1:]) - 1, [1, 3, last],
            10.0 ** np.arange(2, 9), np.floor(np.exp(rng.uniform(0, math.log(last), 12)))]))
        idx = idx[(idx >= 0) & (idx <= last)]
        oracle = mp_cell_end_oracle(gap_fraction)
        for i, t in zip(idx.tolist(), quadrature.cell_ends(idx, c).tolist()):
            want = oracle(i, t) if i else 0.0
            assert abs(t - want) <= 4 * math.ulp(t), (i, t, float(want))

    def test_each_cell_end_depends_on_its_index_alone(self, cfg):
        rng = np.random.default_rng(3)
        for lo in (0.0, 5.0e5, 4.9e8):  # graded, constant and log pieces; the log term at 1e5 and 1e8
            idx = np.arange(lo, lo + 20000.0)
            whole = quadrature.cell_ends(idx, cfg)
            for _ in range(200):
                a, n = int(rng.integers(0, idx.size - 70)), int(rng.integers(1, 70))
                assert quadrature.cell_ends(idx[a : a + n], cfg).tolist() == whole[a : a + n].tolist()
                assert quadrature.cell_ends(idx[a : a + n][::-1], cfg).tolist() == whole[a : a + n][::-1].tolist()
                pick = np.sort(rng.choice(idx.size, n, replace=False))
                assert quadrature.cell_ends(idx[pick], cfg).tolist() == whole[pick].tolist()
                assert quadrature.cell_ends([idx[a]], cfg)[0] == whole[a]

    def test_cell_ends_strictly_increase_up_to_rs_t_max(self, cfg):
        # dense windows at every piece start, every decade and the last
        # panel below RS_T_MAX; the oracle's few ulps are far below a cell
        last = last_panel_below_rs_t_max(cfg) * quadrature.CELLS
        for lo in np.concatenate([np.floor(quadrature._pieces(cfg.gap_fraction)[1]),
                                  10.0 ** np.arange(2, 9), [last - 2.0e5]]):
            b = quadrature.cell_ends(np.arange(max(lo - 100.0, 0.0), min(lo + 2.0e5, last + 1)), cfg)
            assert np.all(np.diff(b) > 0), lo
        assert b[-1] < zkernel.RS_T_MAX

    def test_graded_panels_from_0_then_the_log_term(self, cfg):
        assert quadrature.panel_bounds(np.arange(6), cfg).tolist() == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
        assert quadrature.cell_ends(np.arange(5), cfg).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        # cells of 2 up to where the log term drops below 2, then each holds
        # gap_fraction of the smooth zero count
        assert quadrature.cell_ends(np.arange(16.0, 28.0), cfg).tolist() == list(range(8, 32, 2))
        b = quadrature.cell_ends(np.arange(28.0, 5000.0), cfg)
        count = b / (2 * math.pi) * (np.log(b / (2 * math.pi)) - 1.0)
        assert np.allclose(np.diff(count), cfg.gap_fraction, rtol=0, atol=1e-9)

    def test_panel_mesh_takes_every_fourth_cell(self, cfg):
        # panel_bounds and the inner cell boundaries (_cell_lefts) are every
        # fourth cell end and the three between
        ps = np.arange(0.0, 3000.0)
        cells = quadrature.cell_ends(np.arange(0.0, 4 * 3000.0), cfg)
        assert quadrature.panel_bounds(ps, cfg).tolist() == cells[::4].tolist()
        inner = quadrature._cell_lefts(ps, cfg)
        assert np.column_stack([cells[::4], inner]).ravel().tolist() == cells.tolist()

    @pytest.mark.parametrize("stride, t1", [(7, 500.0), (16384, 3.0e4)])
    def test_the_store_lays_the_mesh_from_0(self, cfg, stride, t1):
        # the store reached one boundary, or stride panels, at a time lays
        # the boundaries one call from 0 gives
        b = quadrature.panel_bounds(np.arange(quadrature.first_panel(t1, cfg) + 1), cfg)
        store = quadrature.ZStore(cfg)
        for i in range(0, len(b), stride):
            assert store.reach(float(b[i])) == i
        for i in (0, 1, 2, 3, 57, 58, len(b) // 2, len(b) - 2, 3, len(b) - 1):
            assert store.reach(float(b[i])) == i
            assert store.reach(math.nextafter(float(b[i]), -math.inf)) == i
        assert store.reach(t1) == len(b) - 1
        assert store.bounds.tolist() == b.tolist()
        with pytest.raises(DomainError):
            store.reach(math.nan)

    def test_a_panel_reaching_rs_t_max_is_refused_before_any_is_laid(self, cfg):
        p = last_panel_below_rs_t_max(cfg)
        last = float(quadrature.panel_bounds([p], cfg)[0])
        assert quadrature.first_panel(last, cfg) == p
        for t in (math.nextafter(last, math.inf), zkernel.RS_T_MAX, 6.0e10, 1.0e300, math.inf):
            store = quadrature.ZStore(cfg)
            with pytest.raises(DomainError, match="RS_T_MAX = 1e[+]08" if math.isfinite(t) else "not finite"):
                store.reach(t)
            assert store.bounds.tolist() == [0.0]

    @pytest.mark.parametrize("to", [-math.inf, math.inf])
    def test_an_origin_off_the_mesh_from_0_is_refused(self, cfg, to):
        acc = MomentAccumulator(1, cfg)
        acc.ensure(1000.0)
        t, v, e, n, *sums = acc.rows([acc.index(700.0)])[0]
        off = math.nextafter(t, to)
        with pytest.raises(CheckpointMismatch, match="T=%r does not reproduce" % off):
            MomentAccumulator(1, cfg, (off, v, e, n, *sums))
        for m in (n - 1, n + 1):
            with pytest.raises(CheckpointMismatch, match="not panel %d " % m):
                MomentAccumulator(1, cfg, (t, v, e, m, *sums))
        seeded = MomentAccumulator(1, cfg, (t, v, e, n, *sums))
        assert seeded.bounds.tolist() == [t] and seeded.base == n

    def test_accumulator_bounds_are_one_mesh(self, cfg):
        # panels four cells wide, independent of how far earlier calls integrated
        acc = MomentAccumulator(1, cfg)
        acc.ensure(700.0)
        acc.ensure(2100.0)
        whole = MomentAccumulator(1, cfg)
        whole.ensure(2100.0)
        assert acc.bounds.tolist() == whole.bounds.tolist()
        assert acc.bounds.tolist() == quadrature.panel_bounds(np.arange(len(acc.bounds)), cfg).tolist()
        for p, q in zip(acc.prefix(), whole.prefix()):
            assert p.tolist() == q.tolist()
        assert len(acc.bounds) == len(acc.prefix()[0])

    def test_accumulators_and_the_laplace_grid_read_one_bounds_array(self, cfg):
        from zetalab.laplace import laplace_moment_grid

        quadrature.clear_accumulators()
        store = quadrature.get_store(cfg)
        (lap,) = laplace_moment_grid(2, [0.05], cfg)  # truncated near 662
        one, two = get_accumulator(1, cfg), get_accumulator(2, cfg)
        one.ensure(300.0)
        two.ensure(900.0)
        seeded = MomentAccumulator(1, cfg, one.rows([one.index(200.0)])[0])
        seeded.ensure(1200.0)
        assert seeded.base > 0
        bs = store.bounds
        assert bs[-2] < 1200.0 <= bs[-1]  # laid as far as the furthest request, once
        assert lap.t_range[1] == bs[lap.panels]
        for acc in (one, two, seeded):
            assert acc.store is store and np.shares_memory(acc.bounds, bs)
            assert acc.bounds.tolist() == bs[acc.base : acc.base + len(acc.bounds)].tolist()
        quadrature.clear_accumulators()


class TestZStore:
    T, SNAPS, SIGMAS = 600.0, [250.0, 400.0], [0.05, 0.08]  # 173 panels; L2 truncated at 404 and 662
    WINDOWS = [(400.0, 20.0), (30.0, 8.0)]  # on the mesh panels; in steps, reaching below 0

    def results(self, cfg, before):
        """Accumulator rows, E1, E2, the mean square, an L2 grid to T and
        the smoothed windows, each computed after before()."""
        from zetalab.laplace import laplace_moment_grid
        from zetalab.moments import mean_square_e2

        out = []
        for k in (1, 2):
            before()
            acc = get_accumulator(k, cfg)
            acc.ensure(self.T)
            out.append((acc.rows(np.arange(len(acc.bounds))), error_term(k, self.T, cfg)))
        before()
        out.append(mean_square_e2(self.T, cfg, snapshots=self.SNAPS))
        before()
        out.append(laplace_moment_grid(2, self.SIGMAS, cfg))
        for t_center, delta in self.WINDOWS:
            before()
            out.append(smoothed_fourth(t_center, delta, cfg))
        return out

    def test_a_fill_keeps_its_samples_within_the_cap_only(self, cfg, monkeypatch):
        monkeypatch.setattr(quadrature, "STORE_PANELS", 64)
        quadrature.clear_accumulators()
        store = quadrature.get_store(cfg)
        acc = get_accumulator(1, cfg)
        acc.ensure(100.0)
        held = len(acc.bounds) - 1
        assert 0 < held <= 64 and store.held == held and len(store.z) == held
        assert store.bounds.tolist() == acc.bounds.tolist()
        z, zerr = zkernel.z_block(quadrature.panel_nodes(acc.bounds[:-1], acc.bounds[1:], cfg.nodes)[0])
        assert store.z[:held].tolist() == z.tolist() and store.zerr[:held].tolist() == zerr.tolist()
        get_accumulator(2, cfg).ensure(self.T)  # reads the rows held, keeps none past the cap
        assert store.held == held and len(store.z) == held
        assert len(store.bounds) - 1 > 64  # the boundaries are kept past the cap
        quadrature.clear_accumulators()
        store = quadrature.get_store(cfg)
        acc = get_accumulator(2, cfg)
        acc.ensure(self.T)
        assert store.held == 0 and store.z.size == 0 and store.bounds.tolist() == acc.bounds.tolist()

    def test_every_value_is_the_same_from_a_cold_a_warm_and_no_store(self, cfg, monkeypatch):
        def drop():
            for k in (1, 2):
                quadrature.drop_accumulator(k, cfg)

        cold = self.results(cfg, quadrature.clear_accumulators)
        quadrature.clear_accumulators()
        self.results(cfg, lambda: None)
        assert quadrature.get_store(cfg).held >= len(get_accumulator(1, cfg).bounds) - 1
        assert self.results(cfg, drop) == cold
        monkeypatch.setattr(quadrature, "STORE_PANELS", 64)
        assert self.results(cfg, quadrature.clear_accumulators) == cold
        assert quadrature.get_store(cfg).held == 0
        error_term(1, 100.0, cfg)  # a few rows held, the rest past the cap
        held = quadrature.get_store(cfg).held
        assert held > 0
        assert self.results(cfg, drop) == cold
        assert quadrature.get_store(cfg).held == held
        quadrature.clear_accumulators()

    def test_a_functionals_sequence_evaluates_no_node_twice(self, cfg, monkeypatch):
        # within STORE_PANELS only the partial panel of a query that ends
        # inside a panel evaluates Z at nodes some other query evaluated
        from zetalab.laplace import laplace_moment_grid
        from zetalab.moments import integral_of_e2, integrate_moment, mean_square_e2

        quadrature.clear_accumulators()
        seen = []
        real = zkernel.z_block

        def spy(t):
            seen.append(np.array(t, dtype=float).ravel())
            return real(t)

        monkeypatch.setattr(zkernel, "z_block", spy)
        t_upper, snaps = 1500.0, [400.0, 1000.0]
        for k in (1, 2):
            error_term(k, t_upper, cfg)
        integrate_moment(2, 0.0, 500.0, cfg)
        integral_of_e2(t_upper, cfg)
        mean_square_e2(t_upper, cfg, snapshots=snaps)
        for k in (1, 2):
            laplace_moment_grid(k, [0.03, 0.05], cfg)
        for t_center, delta in ((600.0, 30.0), (1000.0, 50.0)):
            smoothed_fourth(t_center, delta, cfg)
        store = quadrature.get_store(cfg)
        assert len(store.bounds) - 1 <= quadrature.STORE_PANELS and store.held == len(store.bounds) - 1
        ends = [t_upper, t_upper, 500.0, t_upper, t_upper] + snaps
        inside = int(np.count_nonzero(~np.isin(ends, store.bounds)))
        ts = np.concatenate(seen)
        assert ts.size - np.unique(ts).size <= (2 * cfg.nodes + 1) * inside
        quadrature.clear_accumulators()


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
        cells = quadrature.cell_ends(np.arange(4 * quadrature.first_panel(t1, cfg) + 1), cfg)
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
        quadrature.clear_accumulators()
        with monkeypatch.context() as m:
            m.setattr(quadrature, "STORE_PANELS", 0)
            acc = MomentAccumulator(1, cfg)
            acc.ensure(1500.0)
        quadrature.clear_accumulators()  # the panels held, their samples not
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
        # an accumulator that filled the store leaves the grid nothing to evaluate
        filled = get_accumulator(1, cfg)
        filled.ensure(1500.0)
        points[0] = 0
        assert filled.boundary_grid(float(acc.bounds[i]), float(acc.bounds[j]))[0].tolist() == bs.tolist()
        assert points[0] == 0

    def test_past_the_cap_the_cells_of_the_mesh_laid_once(self, cfg, monkeypatch):
        monkeypatch.setattr(quadrature, "STORE_PANELS", 16)
        quadrature.clear_accumulators()
        laid, probing = [], []
        real_cells, real_first = quadrature.cell_ends, quadrature.first_panel

        def counted(i, c):
            if not probing:
                laid.append(np.array(i, dtype=float).ravel())
            return real_cells(i, c)

        def first(t, c):  # its probes of a few boundaries are not counted
            probing.append(t)
            try:
                return real_first(t, c)
            finally:
                probing.pop()

        monkeypatch.setattr(quadrature, "cell_ends", counted)
        monkeypatch.setattr(quadrature, "first_panel", first)
        acc = get_accumulator(1, cfg)
        bs, *_ = acc.boundary_grid(300.0, 900.0)
        assert quadrature.get_store(cfg).held == 0
        monkeypatch.undo()
        cells = np.concatenate(laid)  # each cell end in one call only
        assert np.unique(cells).size == cells.size
        last = quadrature.first_panel(900.0, cfg)
        assert set(cells[cells % 4 == 0].tolist()) == set(range(4, 4 * last + 1, 4))
        cells = quadrature.cell_ends(np.arange(4 * last + 1), cfg)
        assert len(bs) > 4 * 16 and bs.tolist() == cells[(cells >= 300.0) & (cells <= 900.0)].tolist()
        quadrature.clear_accumulators()


class TestSampleReads:
    @pytest.mark.parametrize("k, t0, t1", [(1, 100.0, 300.0), (2, 500.0, 700.0)], ids=["em", "rs"])
    def test_read_agrees_with_cumulative_at(self, k, t0, t1, cfg):
        # Both add a piece to the same prefix sums, so the pieces differ by
        # at most the two charges above the prefix bound; on the
        # Euler-Maclaurin branch also by at most 1e-13 relative.
        acc = get_accumulator(k, cfg)
        for s in acc.sweep(t0, t1):
            r = np.repeat(np.arange(len(s.ps)), 3)
            ts = acc.bounds[s.ps[r]] + np.tile([0.1, 0.5, 0.93], r.size // 3) * 2.0 * s.half[r]
            v, vu, e = acc.read(s, r, ts)
            cv, cu, ce, _ = acc.cumulative_at(ts)
            pe = acc.prefix()[2][s.ps[r]]
            assert np.all(np.abs(v - cv) <= (e - pe) + (ce - pe))
            assert np.all(np.abs(vu - cu) <= ts * ((e - pe) + (ce - pe)))
            if t1 <= zkernel.T_SWITCH:
                assert np.all(np.abs(v - cv) <= 1e-13 * np.abs(cv))

    def test_node_reads_agree_with_read(self, cfg):
        acc = get_accumulator(1, cfg)
        s = next(acc.sweep(200.0, 260.0))
        v, vu = acc.read_nodes(s), acc.read_nodes(s, u=True)
        r = np.repeat(np.arange(len(s.ps)), s.t.shape[1])
        rv, ru, _ = acc.read(s, r, s.t.ravel())
        assert np.allclose(v.ravel(), rv, rtol=1e-14, atol=0.0)
        assert np.allclose(vu.ravel(), ru, rtol=1e-14, atol=0.0)


# The acceptance test of the retired adaptive bisection: a rule was accepted
# when |G_n - K_2n+1| <= max(PANEL_ABS, PANEL_REL |K_2n+1|).
PANEL_ABS, PANEL_REL = 1e-9, 1e-10


class TestRefinement:
    @pytest.mark.parametrize("k", [1, 2])
    def test_four_cell_panels_need_no_refinement(self, k, cfg, monkeypatch):
        # every panel of the graded default mesh on [0, 2e4], and for k = 2
        # of smoothed windows that reach below 0, meets the retired
        # acceptance test with its one rule
        worst = []
        real = PanelBatch._panel_pair
        _, wk, wg = kronrod_rule(cfg.nodes)

        def checked(self, a, b, samples=None):
            t, half = quadrature.panel_nodes(a, b, cfg.nodes)
            f = samples[0] if samples is not None else self.integrand(t.ravel())[0].reshape(t.shape)
            kv = half * np.sum(wk * f, axis=1)
            gv = half * np.sum(wg * f[:, 1::2], axis=1)
            worst.append(float(np.max(np.abs(gv - kv) / np.maximum(PANEL_ABS, PANEL_REL * np.abs(kv)),
                                      initial=0.0)))
            return real(self, a, b, samples)

        monkeypatch.setattr(PanelBatch, "_panel_pair", checked)
        quadrature.clear_accumulators()
        MomentAccumulator(k, cfg).ensure(2.0e4)
        for t, delta in ((30.0, 8.0), (50.0, 12.0), (20.0, 5.0)) if k == 2 else ():
            assert t - cfg.window_w * delta < 0.0
            smoothed_fourth(t, delta, cfg)
        assert len(worst) > 10 and max(worst) <= 1.0


class TestPanelBatch:
    def test_run_on_a_batch_equals_run_on_each_panel_alone(self, cfg):
        acc = MomentAccumulator(2, cfg)
        acc.ensure(1200.0)
        lefts, rights = acc.bounds[:-1], acc.bounds[1:]
        batch = PanelBatch(acc._integrand, cfg)
        got = batch.run(lefts, rights)
        assert len(got) == 4 and all(len(q) == len(lefts) for q in got)
        for i in range(0, len(lefts), 7):
            alone = batch.run(lefts[i : i + 1], rights[i : i + 1])
            assert [q[i] for q in got] == [q[0] for q in alone], i
        assert all(q.size == 0 for q in batch.run([], []))


class TestPrefix:
    def test_a_sweep_in_many_chunks_folds_as_one_cumsum(self, cfg, monkeypatch):
        monkeypatch.setattr(MomentAccumulator, "GRID_CHUNK", 8)
        acc = MomentAccumulator(1, cfg)
        grown = set()
        for _ in acc.sweep(0.0, 1500.0):
            grown.add(acc._rows.shape[1])
        assert len(acc.bounds) - 1 > 100 and len(grown) > 4
        for p, q in zip(acc.prefix(), acc._sums()):
            assert p.tolist() == np.cumsum(np.concatenate([[0.0], q])).tolist()
        whole = MomentAccumulator(1, cfg)
        whole.ensure(float(acc.bounds[-1]))
        assert whole.bounds.tolist() == acc.bounds.tolist()
        for p, q in zip(acc.prefix(), whole.prefix()):
            assert p.tolist() == q.tolist()

    @pytest.mark.parametrize("k", [1, 2])
    def test_prefix_plus_compensation_is_the_exact_sum(self, k, cfg):
        # p + C against the correctly rounded sum of the per-panel values
        # below the boundary, for each of the four sums
        acc = MomentAccumulator(k, cfg)
        acc.ensure(1.0e4)
        rng = np.random.default_rng(2024 + k)
        boundaries = rng.choice(np.arange(1, len(acc.bounds)), size=50, replace=False)
        for p, c, q in zip(acc.prefix(), acc.compensation(boundaries), acc._sums()):
            for i, ci in zip(boundaries, c):
                assert p[i] + ci == math.fsum(q[:i].tolist())


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
        real = zkernel.z_block

        def counting(t):
            count[0] += np.size(t)
            return real(t)

        monkeypatch.setattr(zkernel, "z_block", counting)
        for cfg in (QuadConfig(), QuadConfig(nodes=8)):
            quadrature.clear_accumulators()
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
