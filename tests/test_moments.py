"""Moment integrals, polynomials, error terms, smoothing, the derived P4."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from zetalab import moments, zkernel
from zetalab.config import QuadConfig
from zetalab.constants import P4_LOWER, fourth_moment_a3, fourth_moment_a4, second_moment_constant
from zetalab.errors import DomainError
from zetalab.moments import (
    DERIVED,
    PAPER_EXACT,
    MomentPolynomial,
    default_p4,
    error_term,
    integral_of_e2,
    integral_of_t_poly,
    integrate_moment,
    main_term,
    mean_square_e2,
    p1_exact,
    p4_polynomial,
    smoothed_fourth,
)
from zetalab.quadrature import PanelBatch, get_accumulator

import _frozen as F
from _fingerprint import frozen_mismatch

ROOT = Path(__file__).resolve().parents[1]


def derive_p4_tool():
    """tools/derive_p4.py as a module."""
    spec = importlib.util.spec_from_file_location("derive_p4", ROOT / "tools" / "derive_p4.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestMomentPolynomial:
    def test_p1_exact_coefficients(self):
        p = p1_exact()
        assert p.coeffs[0] == 1.0
        assert abs(p.coeffs[1] - float(second_moment_constant())) == 0
        assert p.all_paper_exact()

    def test_p4_leading_paper_exact(self):
        p = default_p4()
        assert p.provenance[:2] == (PAPER_EXACT, PAPER_EXACT)
        assert abs(p.coeffs[0] - float(fourth_moment_a4())) == 0
        assert abs(p.coeffs[1] - float(fourth_moment_a3())) == 0
        assert p.provenance[2:] == (DERIVED,) * 3
        assert p.coeffs[2:] == P4_LOWER

    def test_a4_value(self):
        assert abs(float(fourth_moment_a4()) - 1 / (2 * math.pi**2)) < 1e-16

    def test_bad_shapes_rejected(self):
        with pytest.raises(DomainError):
            MomentPolynomial(k=1, coeffs=(1.0,), provenance=("paper-exact",))
        with pytest.raises(DomainError):
            MomentPolynomial(k=3, coeffs=(1.0,) * 10, provenance=("paper-exact",) * 10)


class TestMainTerm:
    def test_k1_at_e(self):
        # T = e makes log T = 1
        p = p1_exact()
        expect = math.e * (1.0 + p.coeffs[1])
        assert abs(main_term(1, math.e, p) - expect) < 1e-14

    def test_k2_at_e_leading_only(self):
        p = p4_polynomial((0.0, 0.0, 0.0), "user-supplied")
        expect = math.e * (p.coeffs[0] + p.coeffs[1])
        assert abs(main_term(2, math.e, p) - expect) < 1e-14

    def test_leading_ratio_approaches_a4(self):
        p = p4_polynomial((0.0, 0.0, 0.0), "user-supplied")
        a4 = float(fourth_moment_a4())
        devs = []
        for t in (1e3, 1e4, 1e5):
            devs.append(abs(main_term(2, t, p) / (t * math.log(t) ** 4) - a4))
        assert devs[0] > devs[1] > devs[2]

    def test_k_mismatch(self):
        with pytest.raises(DomainError):
            main_term(2, 10.0, p1_exact())


class TestIntegrateMoment:
    def test_empty_range(self, cfg):
        r = integrate_moment(1, 0.0, 0.0, cfg)
        assert r.value == 0.0 and r.err_bound == 0.0

    def test_a_range_past_rs_t_max_is_refused_at_once(self, cfg, no_mesh_no_z):
        with pytest.raises(DomainError, match="RS_T_MAX = 1e[+]08"):
            integrate_moment(2, 1e9, 1e9 + 1, cfg)
        assert no_mesh_no_z == []

    def test_invalid_ranges(self, cfg):
        with pytest.raises(DomainError):
            integrate_moment(1, -1.0, 5.0, cfg)
        with pytest.raises(DomainError):
            integrate_moment(1, 5.0, 1.0, cfg)
        with pytest.raises(DomainError):
            integrate_moment(3, 0.0, 5.0, cfg)

    @pytest.mark.parametrize("a, b", [(math.nan, 100.0), (0.0, math.nan), (10.0, math.inf),
                                      (math.inf, math.inf), (-math.inf, 5.0)])
    def test_non_finite_limits_refused(self, cfg, a, b):
        with pytest.raises(DomainError, match="invalid range"):
            integrate_moment(2, a, b, cfg)

    def test_second_moment_fixture(self, cfg):
        r = integrate_moment(1, 0.0, 100.0, cfg)
        assert r.value == F.MOMENT1_0_100, frozen_mismatch("MOMENT1_0_100")
        assert abs(r.value - F.MOMENT1_0_100_ORACLE) <= max(r.err_bound, 1e-8)

    def test_fourth_moment_fixture_and_additivity(self, cfg):
        r = integrate_moment(2, 0.0, 500.0, cfg)
        assert r.value == F.MOMENT2_0_500, frozen_mismatch("MOMENT2_0_500")
        assert abs(r.value - F.MOMENT2_0_500_ORACLE) <= max(r.err_bound, 5e-6)
        a = integrate_moment(2, 0.0, 250.0, cfg)
        b = integrate_moment(2, 250.0, 500.0, cfg)
        assert abs(a.value + b.value - r.value) <= a.err_bound + b.err_bound + r.err_bound

    def test_short_window_at_large_t_vs_stored_oracle(self, cfg):
        # oracle: 20-digit tanh-sinh quadrature of siegelz^4, stored with the benchmark
        ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        window = ref["oracles"]["e2_window"]
        r = integrate_moment(2, window["a"], window["b"], cfg)
        assert abs(r.value - window["value"]) <= r.err_bound + window["err"]
        assert r.err_bound <= 1e-8

    def test_positivity_and_monotonicity(self, cfg):
        acc = get_accumulator(1, cfg)
        vals = [acc.cumulative_to(t)[0] for t in (10.0, 20.0, 40.0, 80.0)]
        assert all(v >= 0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_panel_count_is_the_panels_meeting_the_range(self, cfg):
        acc = get_accumulator(2, cfg)
        acc.ensure(20.0)
        b2, b5 = float(acc.bounds[2]), float(acc.bounds[5])
        inside = 0.5 * float(acc.bounds[5] + acc.bounds[6])
        mid = 0.5 * float(acc.bounds[3] + acc.bounds[4])
        assert integrate_moment(2, 0.0, b5, cfg).panels == 5
        assert integrate_moment(2, b2, b5, cfg).panels == 3
        assert integrate_moment(2, b2, inside, cfg).panels == 4
        assert integrate_moment(2, mid, inside, cfg).panels == 3
        assert integrate_moment(2, b5, inside, cfg).panels == 1
        assert integral_of_e2(b5, cfg).panels == 5
        assert integral_of_e2(inside, cfg).panels == 6
        assert mean_square_e2(b5, cfg)[0].panels == 5
        assert mean_square_e2(inside, cfg)[0].panels == 6

    def test_refinement_does_not_increase_err_bound(self):
        # windows on the kernel's Euler-Maclaurin branch, whose error model is
        # certified; above T_SWITCH the bound still rises (ROADMAP item 2)
        for a, b in ((10.0, 30.0), (30.0, 45.0), (50.0, 80.0),
                     (100.0, 140.0), (200.0, 260.0), (360.0, 399.0)):
            levels = [integrate_moment(2, a, b, QuadConfig(gap_fraction=g))
                      for g in (0.5, 0.25, 0.125)]
            for rc, rf in zip(levels, levels[1:]):
                assert rf.err_bound <= rc.err_bound * (1 + 1e-9), (a, b)
                assert abs(rf.value - rc.value) <= rf.err_bound + rc.err_bound, (a, b)

    def test_a_coarse_mesh_shows_in_the_bound(self, cfg):
        # one rule per panel: panels four times as wide as the default ones
        # take no extra rule, so the value moves within the larger bound
        coarse = integrate_moment(2, 1000.0, 1100.0, QuadConfig(gap_fraction=2.0))
        fine = integrate_moment(2, 1000.0, 1100.0, cfg)
        assert coarse.err_bound > 1e3 * fine.err_bound
        assert abs(coarse.value - fine.value) <= coarse.err_bound + fine.err_bound


class TestErrorTerm:
    def test_vanishes_at_zero(self, cfg):
        assert error_term(1, 0.0, cfg).value == 0.0
        assert error_term(2, 0.0, cfg).value == 0.0

    def test_e1_fixture(self, cfg):
        r = error_term(1, 1000.0, cfg)
        assert r.value == F.E1_AT_1000, frozen_mismatch("E1_AT_1000")
        assert r.poly.all_paper_exact()

    def test_e1_rejects_calibrated_poly(self, cfg):
        bad = MomentPolynomial(k=1, coeffs=(1.0, -2.0), provenance=(PAPER_EXACT, DERIVED))
        with pytest.raises(DomainError):
            error_term(1, 10.0, cfg, poly=bad)

    def test_e2_fixture_and_provenance_disclosure(self, cfg):
        r = error_term(2, 2000.0, cfg)
        assert r.value == F.E2_AT_2000, frozen_mismatch("E2_AT_2000")
        assert DERIVED in r.poly.provenance

    def test_e2_normalized_magnitude(self, cfg):
        r = error_term(2, 2000.0, cfg)
        assert abs(r.value) / 2000.0 ** (2 / 3) <= F.E2_RATIO_MAX_500_5000

    @pytest.mark.parametrize("t_upper", [5000.0, 10000.0, 20000.0])
    def test_e2_of_order_sqrt_t_beyond_2000(self, cfg, t_upper):
        # E2(T) has size T^(1/2+eps); an error in P4 adds a term of size T log^2 T
        r = error_term(2, t_upper, cfg)
        assert abs(r.value) / math.sqrt(t_upper) < 200.0


class TestSmoothedFourth:
    # (50, 12) has T - W delta < 0: the window's part below 0 is folded onto [0, -lo]
    WINDOWS = [(200.0, 20.0), (50.0, 12.0)]

    def test_gaussian_normalization_hook(self, cfg, monkeypatch):
        monkeypatch.setattr(moments, "moment_integrand", lambda u, k, samples: (np.ones_like(u), np.zeros_like(u)))
        for t_center, delta in self.WINDOWS:
            r = smoothed_fourth(t_center, delta, cfg)
            assert abs(r.value - math.erf(cfg.window_w)) < 1e-12, (t_center, delta)

    @pytest.mark.parametrize("t_center, delta", WINDOWS + [(30.0, 8.0)])
    def test_second_moment_hook(self, cfg, monkeypatch, t_center, delta):
        # int (T + delta x)^2 e^{-x^2} dx / sqrt(pi) over |x| <= W; wrong if
        # the part u < 0 is dropped or folded without reflecting the Gaussian
        w = cfg.window_w
        want = t_center**2 * math.erf(w) + 0.5 * delta**2 * (
            math.erf(w) - 2.0 * w * math.exp(-w * w) / math.sqrt(math.pi))
        monkeypatch.setattr(moments, "moment_integrand", lambda u, k, samples: (u * u, np.zeros_like(u)))
        r = smoothed_fourth(t_center, delta, cfg)
        assert abs(r.value - want) <= 1e-12 * want

    @pytest.mark.parametrize("t_center, delta", WINDOWS)
    def test_one_panel_run_per_call(self, cfg, monkeypatch, t_center, delta):
        runs = []
        real = PanelBatch.run

        def counted(self, lefts, rights, samples=None):
            runs.append(len(lefts))
            return real(self, lefts, rights, samples)

        monkeypatch.setattr(PanelBatch, "run", counted)
        r = smoothed_fourth(t_center, delta, cfg)
        assert runs == [r.panels]

    def test_fixture_and_fine_grid_oracle(self, cfg):
        r = smoothed_fourth(200.0, 20.0, cfg)
        assert r.value == F.SMOOTHED_200_20, frozen_mismatch("SMOOTHED_200_20")
        assert abs(r.value - F.SMOOTHED_200_20_ORACLE) < 1e-5

    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    def test_a_narrow_window_is_cut_into_steps_not_the_mesh(self, cfg, delta):
        # the mesh's panels near 1e4 are about 1.7 wide: only the window,
        # 12 delta wide, is cut into steps of at most delta/3
        r = smoothed_fourth(1e4, delta, cfg)
        assert 6 * cfg.window_w <= r.panels <= 6 * cfg.window_w + 3
        z, _ = zkernel.z_block(np.array([1e4]))
        assert abs(r.value - z[0] ** 4) <= r.err_bound

    @pytest.mark.parametrize("t_center", [1e3, 1e4])
    @pytest.mark.parametrize("ulps", [1, 2, 3])
    def test_a_window_narrower_than_4_ulps_is_refused(self, cfg, t_center, ulps):
        # steps of one ulp put every Kronrod node on a step end: the value is
        # off by far more than its bound, so such a delta is refused
        with pytest.raises(DomainError, match="4 ulps"):
            smoothed_fourth(t_center, ulps * float(np.spacing(t_center)), cfg)

    @pytest.mark.parametrize("t_center, ulps", [(1e3, 4), (1e3, 5), (1e4, 4), (1e4, 5), (1e4, 5.5)])
    def test_a_window_of_4_ulps_or_more_is_within_its_bound(self, cfg, t_center, ulps):
        # 5.5 ulps at 1e4: delta = 1e-11
        delta = 1e-11 if ulps == 5.5 else ulps * float(np.spacing(t_center))
        r = smoothed_fourth(t_center, delta, cfg)
        z, _ = zkernel.z_block(np.array([t_center]))
        assert abs(r.value - z[0] ** 4) <= r.err_bound

    def test_window_truncation_consistency(self):
        r6 = smoothed_fourth(300.0, 20.0, QuadConfig(window_w=6.0))
        r8 = smoothed_fourth(300.0, 20.0, QuadConfig(window_w=8.0))
        assert abs(r6.value - r8.value) <= r6.err_bound

    def test_delta_window_enforced(self, cfg):
        with pytest.raises(DomainError):
            smoothed_fourth(200.0, 200.0 / math.log(200.0) + 1.0, cfg)
        with pytest.raises(DomainError):
            smoothed_fourth(200.0, 0.0, cfg)
        with pytest.raises(DomainError):
            smoothed_fourth(0.5, 0.1, cfg)


class TestIntegralOfE2:
    def test_zero_limit(self, cfg):
        assert integral_of_e2(0.0, cfg).value == 0.0

    def test_fixture_vs_pointwise_oracle(self, cfg):
        r = integral_of_e2(1000.0, cfg)
        assert r.value == F.INT_E2_1000, frozen_mismatch("INT_E2_1000")
        assert abs(r.value - F.INT_E2_1000_ORACLE) < 0.5 + r.err_bound

    def test_closed_form_t_poly_integral(self):
        # check the recursion against numerical quadrature for a known poly
        p = p4_polynomial((0.3, -1.0, 2.0), "user-supplied")
        t_up = 50.0
        xs = np.linspace(1e-9, t_up, 200001)
        ys = xs * np.polyval(np.array(p.coeffs), np.log(xs))
        num = float(np.trapezoid(ys, xs))
        assert abs(integral_of_t_poly(t_up, p) - num) < 1e-2


class TestMeanSquareE2:
    def test_zero_limit(self, cfg):
        r, table = mean_square_e2(0.0, cfg)
        assert r.value == 0.0 and table == []

    @pytest.mark.parametrize("snaps", [[math.nan], [100.0, math.nan], [math.inf], [0.0], [301.0]])
    def test_snapshot_outside_the_range_refused(self, cfg, snaps):
        with pytest.raises(DomainError, match="snapshots must be finite"):
            mean_square_e2(300.0, cfg, snapshots=snaps)

    def test_fixture_and_ratio_table(self, cfg):
        r, table = mean_square_e2(1000.0, cfg, snapshots=[250.0, 500.0, 1000.0])
        assert r.value == F.MEANSQ_E2_1000, frozen_mismatch("MEANSQ_E2_1000")
        assert abs(r.value - F.MEANSQ_E2_1000_ORACLE) <= 0.02 * F.MEANSQ_E2_1000_ORACLE + 1.0
        # the oracle's own error: it moves by 2.9e-4 from 1.0- to 0.25-wide windows
        assert abs(r.value - F.MEANSQ_E2_1000_ORACLE) <= 3e-4
        assert [row[0] for row in table] == [250.0, 500.0, 1000.0]
        assert all(row[1] >= 0 for row in table)
        # snapshots are prefixes: non-decreasing
        assert table[0][1] <= table[1][1] <= table[2][1]
        assert table[2][2] == r.value / 1000.0**2

    def test_snapshots_equal_direct_calls_bit_for_bit(self, cfg):
        acc = get_accumulator(2, cfg)
        acc.ensure(700.0)
        n = acc.n_panels_to(700.0)   # the accumulator may reach beyond 700
        on_mesh = acc.bounds[n // 3]
        inside = 0.5 * (acc.bounds[n // 2] + acc.bounds[n // 2 + 1])
        _, table = mean_square_e2(700.0, cfg, snapshots=[on_mesh, inside])
        assert [row[0] for row in table] == [on_mesh, inside, 700.0]
        for s, v, _ in table:
            assert v == mean_square_e2(s, cfg)[0].value, s

    def test_evaluates_only_the_accumulator_node_set(self, cfg, monkeypatch):
        from zetalab import quadrature, zkernel

        quadrature.clear_accumulators()
        get_accumulator(2, cfg).ensure(1000.0)
        count = [0]
        real = zkernel.z_block

        def counting(t):
            count[0] += np.size(t)
            return real(t)

        monkeypatch.setattr(zkernel, "z_block", counting)
        snaps = [250.0, 500.0, 1000.0]
        mean_square_e2(1000.0, cfg, snapshots=snaps)
        # the mesh panels read the accumulator's samples; only the pieces of
        # snapshots inside a panel evaluate Z
        assert 0 < count[0] <= (2 * cfg.nodes + 1) * len(snaps)


class TestDeriveP4:
    def test_derivation_recovers_the_closed_form_a4_a3(self):
        a4, a3 = derive_p4_tool().derive_p4()[:2]
        assert abs(float(a4) - float(fourth_moment_a4())) < 1e-15
        assert abs(float(a3) - float(fourth_moment_a3())) < 1e-15

    def test_fresh_derivation_matches_packaged_default(self):
        lower = tuple(float(a) for a in derive_p4_tool().derive_p4()[2:])
        assert lower == P4_LOWER
        assert default_p4().coeffs[2:] == lower

    def test_p4_plus_derivative_is_the_printed_cfkrs_p2(self):
        # CFKRS (2005): int_0^T |zeta|^4 = int_0^T P2(log(t/2 pi)) dt + o(T), with
        # P2(x) as printed there; d/dT [T P4(log T)] = (P4 + P4')(log T)
        printed = (0.0506606, 0.6988699, 2.4259622, 3.2279080, 1.3124244)
        p4 = np.poly1d(default_p4().coeffs)
        shifted = (p4 + p4.deriv())(np.poly1d([1.0, math.log(2 * math.pi)]))
        assert np.all(np.abs(shifted.coeffs - printed) <= 5e-8)
