"""Spectral dataset handling, Hecke machinery, R factor, explicit-formula sums."""

import math

import pytest
from mpmath import mp, mpc

from zetalab.errors import (
    DataParseError,
    DataValidationError,
    DomainError,
    MissingEigenvalues,
    MissingPrime,
    PoleError,
    UnknownKernel,
)
from zetalab.spectral import (
    MaassFormRecord,
    SpectralDataset,
    hecke_extend,
    hecke_fe_factor,
    hecke_series_partial,
    integral_e2_spectral,
    integral_e2_term_amplitude,
    l2_spectral_expansion,
    laplace_e2_spectral,
    load_spectral_dataset,
    motohashi_spectral_sum,
    r_factor,
    r_factor_modulus,
    term_profile,
)

import _frozen as F


def synthetic(kappa=10.0, c=1.0, eps=1, j=1, **kw):
    return MaassFormRecord(j=j, kappa=kappa, c=c, eps=eps, **kw)


def dataset(*records):
    return SpectralDataset(records=tuple(records), source="synthetic").validate()


class TestDatasetLoading:
    def test_starter_loads(self, starter_dataset):
        assert len(starter_dataset) == 10
        assert starter_dataset.checksum

    def test_starter_kappas_match_source_digits(self, starter_dataset):
        # oracle: the published spectral tables named in the provenance
        published = [
            9.533695, 12.173008, 13.779751, 14.358509, 16.138073,
            16.644259, 17.738563, 18.180918, 19.423481, 19.484714,
        ]
        got = [r.kappa for r in starter_dataset.records]
        assert got == published

    def test_starter_parity_weight_consistency(self, starter_dataset):
        for r in starter_dataset.records:
            if r.eps == -1:
                assert r.c == 0.0
            else:
                assert r.c > 0.0

    def test_empty_file_with_header(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# comment\nj,kappa,c,eps\n")
        ds = load_spectral_dataset(str(p))
        assert len(ds) == 0

    def test_odd_with_nonzero_weight_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("j,kappa,c,eps\n1,9.5337,1.0,-1\n")
        with pytest.raises(DataValidationError) as ei:
            load_spectral_dataset(str(p))
        assert ei.value.invariant == "odd-form-zero-weight"

    def test_nonincreasing_kappa_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("j,kappa,c,eps\n1,9.5,0.0,-1\n2,9.4,0.0,-1\n")
        with pytest.raises(DataValidationError) as ei:
            load_spectral_dataset(str(p))
        assert ei.value.invariant == "strictly-increasing-kappa"

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("j,kappa,c,eps\n1,abc,0.0,-1\n")
        with pytest.raises(DataParseError) as ei:
            load_spectral_dataset(str(p))
        assert ei.value.line == 2

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,9.5,0.0,-1\n")
        with pytest.raises(DataParseError):
            load_spectral_dataset(str(p))

    def test_alpha_h_cross_check(self):
        with pytest.raises(DataValidationError) as ei:
            MaassFormRecord(j=1, kappa=13.78, c=3.0, eps=1, alpha=1.0, h_half=1.0).validate()
        assert ei.value.invariant == "combined-weight-consistency"
        MaassFormRecord(j=1, kappa=13.78, c=8.0, eps=1, alpha=1.0, h_half=2.0).validate()


class TestHeckeExtend:
    def test_basics(self):
        t = hecke_extend({2: 1.3, 3: -0.4, 5: 0.9, 7: 0.2, 11: 0.0}, 12)
        assert t[1] == 1.0
        assert abs(t[4] - (1.3**2 - 1)) < 1e-15
        assert abs(t[12] - t[4] * t[3]) < 1e-15

    def test_missing_prime(self):
        with pytest.raises(MissingPrime):
            hecke_extend({2: 1.0}, 10)

    def test_multiplicativity_and_recursion_brute_force(self, rng):
        # verify on all n <= 10^4 via factorization
        primes = [p for p in range(2, 10001) if all(p % q for q in range(2, int(p**0.5) + 1))]
        t_p = {p: float(rng.uniform(-1.5, 1.5)) for p in primes}
        t = hecke_extend(t_p, 10**4)
        for n in range(2, 10**4 + 1):
            m, f = n, {}
            d = 2
            while d * d <= m:
                while m % d == 0:
                    f[d] = f.get(d, 0) + 1
                    m //= d
                d += 1
            if m > 1:
                f[m] = f.get(m, 0) + 1
            expect = 1.0
            for p, e in f.items():
                tp_pow = [1.0, t_p[p]]
                for _ in range(2, e + 1):
                    tp_pow.append(t_p[p] * tp_pow[-1] - tp_pow[-2])
                expect *= tp_pow[e]
            assert abs(t[n] - expect) <= 1e-10 * max(1.0, abs(expect))


class TestHeckeSeriesPartial:
    def test_degenerate_zero_eigenvalues_vs_enumeration(self, ctx):
        primes = [2, 3, 5, 7, 11, 13, 17, 19]
        rec = synthetic(hecke_t_p={p: 0.0 for p in primes})
        v, _ = hecke_series_partial(rec, 2.0, 20, ctx)
        # with t(p)=0: t(p^2) = -1, t(4)= -1, t(9) = -1, t(p^4)=+1 (16);
        # direct enumeration over n <= 20:
        t = hecke_extend({p: 0.0 for p in primes}, 20)
        expect = sum(t[n] / n**2 for n in range(1, 21))
        assert abs(complex(v).real - expect) < 1e-14

    def test_cauchy_consistency(self, ctx):
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, int(p**0.5) + 1))]
        rec = synthetic(hecke_t_p={p: p ** (-0.1) for p in primes})
        v1, tail1 = hecke_series_partial(rec, 3.0, 64, ctx)
        v2, _ = hecke_series_partial(rec, 3.0, 128, ctx)
        assert abs(v2 - v1) <= tail1

    def test_brute_force_match(self, ctx):
        primes = [p for p in range(2, 64) if all(p % q for q in range(2, int(p**0.5) + 1))]
        rec = synthetic(hecke_t_p={p: p ** (-0.1) for p in primes})
        v, _ = hecke_series_partial(rec, mpc(2.5, 1.0), 60, ctx)
        t = hecke_extend(rec.hecke_t_p, 60)
        with ctx.workprec():
            direct = sum(t[n] * mpc(n) ** (-mpc(2.5, 1.0)) for n in range(1, 61))
            assert abs(v - direct) < 1e-25

    def test_domain_and_missing(self, ctx):
        with pytest.raises(DomainError):
            hecke_series_partial(synthetic(hecke_t_p={2: 0.1}), 0.5, 10, ctx)
        with pytest.raises(MissingEigenvalues):
            hecke_series_partial(synthetic(), 2.5, 10, ctx)


class TestFeFactor:
    @pytest.mark.parametrize("kappa", [9.5337, 12.173, 25.0])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_collapses_to_eps_at_half(self, ctx, kappa, eps):
        v, _ = hecke_fe_factor(0.5, kappa, eps, ctx)
        assert abs(v - eps) < 1e-14

    def test_involution(self, ctx):
        s = mpc(0.3, 2.0)
        v1, _ = hecke_fe_factor(s, 9.5337, 1, ctx)
        v2, _ = hecke_fe_factor(1 - s, 9.5337, 1, ctx)
        assert abs(v1 * v2 - 1) < 1e-12

    def test_involution_grid(self, ctx, rng):
        for _ in range(12):
            s = mpc(rng.uniform(-1, 2), rng.uniform(-3, 3))
            v1, _ = hecke_fe_factor(s, 13.779751, -1, ctx)
            v2, _ = hecke_fe_factor(1 - s, 13.779751, -1, ctx)
            assert abs(v1 * v2 - 1) < 1e-12

    def test_fixture(self, ctx):
        v, err = hecke_fe_factor(2.0, 9.5337, 1, ctx)
        assert abs(complex(v) - F.FE_FACTOR_S2_K9_5337) <= max(err, 1e-18)


class TestRFactor:
    def test_modulus_identity(self, ctx):
        v, _ = r_factor(5.0, ctx)
        assert abs(abs(v) - r_factor_modulus(5.0, ctx)) < 1e-12

    def test_conjugation(self, ctx):
        v, _ = r_factor(9.5337, ctx)
        w, _ = r_factor(-9.5337, ctx)
        assert abs(w - mp.conj(v)) < 1e-14

    def test_fixture(self, ctx):
        v, err = r_factor(9.5337, ctx)
        assert abs(complex(v) - F.R_AT_9_5337) <= max(err, 1e-20)

    def test_pole_at_zero(self, ctx):
        with pytest.raises(PoleError):
            r_factor(0.0, ctx)

    @pytest.mark.parametrize("y", [1.0, 5.0, 9.5337, 20.0])
    def test_modulus_identity_grid(self, ctx, y):
        v, _ = r_factor(y, ctx)
        assert abs(abs(v) - r_factor_modulus(y, ctx)) <= 1e-12 * r_factor_modulus(y, ctx)


class TestMotohashiSum:
    def test_empty_dataset(self, cfg, ctx):
        ds = dataset()
        r = motohashi_spectral_sum(100.0, 10.0, ds, cfg=cfg, ctx=ctx)
        assert r.value == 0.0 and r.terms_used == 0
        assert r.truncation_bound > 0

    def test_single_form_closed_form(self, cfg, ctx):
        ds = dataset(synthetic(kappa=10.0, c=1.0))
        r = motohashi_spectral_sum(100.0, 10.0, ds, cfg=cfg, ctx=ctx)
        expect = (
            math.pi
            / math.sqrt(2 * 100.0)
            * 1.0
            / math.sqrt(10.0)
            * math.sin(10.0 * math.log(10.0 / (4 * math.e * 100.0)))
            * math.exp(-((10.0 * 10.0 / 200.0) ** 2))
        )
        assert abs(r.value - expect) < 1e-15

    def test_appending_negligible_form(self, cfg, ctx):
        base = dataset(synthetic(kappa=10.0, c=1.0))
        tol = 1e-10
        # Gaussian factor at kappa=200, T=100, delta=10: exp(-100) << tol
        ext = dataset(synthetic(kappa=10.0, c=1.0), synthetic(j=2, kappa=200.0, c=1.0))
        r1 = motohashi_spectral_sum(100.0, 10.0, base, tol=tol, cfg=cfg, ctx=ctx)
        r2 = motohashi_spectral_sum(100.0, 10.0, ext, tol=tol, cfg=cfg, ctx=ctx)
        scale = math.pi / math.sqrt(2 * 100.0)
        assert abs(r2.value - r1.value) < tol * 1.0 * scale
        assert r2.terms_used == r1.terms_used  # the tiny term was skipped

    def test_admissibility_flag(self, cfg, ctx):
        ds = dataset(synthetic())
        r = motohashi_spectral_sum(10000.0, 30.0, ds, cfg=cfg, ctx=ctx)
        lo, hi = r.metadata["delta_window_A1"]
        assert (lo <= 30.0 <= hi) == r.metadata["delta_admissible_A1"]


class TestLaplaceE2Spectral:
    def test_empty(self, ctx):
        assert laplace_e2_spectral(50.0, dataset(), ctx=ctx).value == 0.0

    def test_single_form_both_variants(self, ctx):
        ds = dataset(synthetic(kappa=10.0, c=1.0))
        for variant in ("oscillatory", "printed"):
            r = laplace_e2_spectral(50.0, ds, variant, ctx)
            rv, _ = r_factor(10.0, ctx)
            with ctx.workprec():
                from zetalab.gammafn import complex_log_gamma

                g, _ = complex_log_gamma(mpc(0.5, -10.0), ctx)
                x = mp.exp(-1j * 10.0 * mp.log(50.0)) if variant == "oscillatory" else mp.mpf(50.0) ** (-10.0)
                expect = float(2 * mp.mpf(50.0) ** 1.5 * (1.0 * rv * mp.exp(g) * x).real)
            assert abs(r.value - expect) < 1e-18 + 1e-12 * abs(expect)
            assert r.metadata["variant"] == variant

    def test_printed_variant_negligible(self, ctx):
        # unit-weight magnitude at T=50, kappa=9.5337 below 50^{-9}
        ds = dataset(synthetic(kappa=9.5337, c=1.0))
        r = laplace_e2_spectral(50.0, ds, "printed", ctx)
        assert abs(r.value) < 50.0 ** (-9)


class TestIntegralE2Spectral:
    def test_empty(self, ctx):
        assert integral_e2_spectral(100.0, dataset(), ctx).value == 0.0

    def test_single_form_closed_form(self, ctx):
        ds = dataset(synthetic(kappa=10.0, c=1.0))
        r = integral_e2_spectral(100.0, ds, ctx)
        with ctx.workprec():
            rv, _ = r_factor(10.0, ctx)
            num = mp.exp(1j * 10.0 * mp.log(100.0)) * rv
            den = (mp.mpf(0.5) + 10j) * (mp.mpf(1.5) + 10j)
            expect = float(2 * mp.mpf(100.0) ** 1.5 * (num / den).real)
        assert abs(r.value - expect) < 1e-12 * max(1.0, abs(expect))

    def test_amplitude_envelope(self, ctx):
        rec = synthetic(kappa=10.0, c=0.7)
        amp = integral_e2_term_amplitude(100.0, rec, ctx)
        ds = dataset(rec)
        r = integral_e2_spectral(100.0, ds, ctx)
        assert abs(r.terms[0]) <= amp * (1 + 1e-12)
        with ctx.workprec():
            rv, _ = r_factor(10.0, ctx)
            den = abs((mp.mpf(0.5) + 10j) * (mp.mpf(1.5) + 10j))
            expect = float(2 * mp.mpf(100.0) ** 1.5 * 0.7 * abs(rv) / den)
        assert abs(amp - expect) < 1e-12 * expect


class TestLinearity:
    def test_concatenation_exact(self, ctx, cfg):
        a = dataset(synthetic(j=1, kappa=9.0, c=1.25), synthetic(j=2, kappa=11.0, c=0.5))
        b = dataset(synthetic(j=3, kappa=14.0, c=2.0), synthetic(j=4, kappa=17.0, c=0.25))
        both = a.concat(b)
        for fn in (
            lambda ds: motohashi_spectral_sum(100.0, 10.0, ds, cfg=cfg, ctx=ctx),
            lambda ds: laplace_e2_spectral(100.0, ds, ctx=ctx),
            lambda ds: integral_e2_spectral(100.0, ds, ctx),
        ):
            ra, rb, rab = fn(a), fn(b), fn(both)
            assert rab.value_exact == ra.value_exact + rb.value_exact  # exact rationals
            assert rab.terms == ra.terms + rb.terms


class TestL2Expansion:
    def test_empty_spectral_part(self, ctx):
        exp = l2_spectral_expansion(0.05, dataset(), ctx=ctx)
        assert exp.spectral == 0j

    def test_real_s_gives_real_spectral_part(self, ctx, starter_dataset):
        exp = l2_spectral_expansion(0.05, starter_dataset, ctx=ctx)
        assert abs(exp.spectral.imag) < 1e-12 * max(1.0, abs(exp.spectral.real))

    def test_variants_labelled(self, ctx, starter_dataset):
        for variant in ("printed", "half_shift"):
            exp = l2_spectral_expansion(0.05, starter_dataset, gamma_variant=variant, ctx=ctx)
            assert exp.variant == variant

    def test_domain(self, ctx, starter_dataset):
        with pytest.raises(DomainError):
            l2_spectral_expansion(0.0, starter_dataset, ctx=ctx)
        with pytest.raises(DomainError):
            l2_spectral_expansion(1.5, starter_dataset, ctx=ctx)


class TestTermProfile:
    def test_empty(self, ctx, cfg):
        prof = term_profile(dataset(), "motohashi_5_1", {"T": 100.0, "delta": 10.0}, ctx, cfg)
        assert prof.rows == ()

    def test_unknown_kernel(self, ctx, cfg, starter_dataset):
        with pytest.raises(UnknownKernel):
            term_profile(starter_dataset, "nope", {}, ctx, cfg)

    def test_geometric_weights_geometric_ratios(self, ctx, cfg):
        # weights engineered so the motohashi terms have exactly geometric
        # magnitudes; the profiler's ratio column must report the ratio.
        t_c, delta, g = 100.0, 10.0, 0.5
        kappas = [8.0, 9.5, 11.0, 12.5]
        recs = []
        for i, kap in enumerate(kappas):
            gauss = math.exp(-((delta * kap / (2 * t_c)) ** 2))
            osc = math.sin(kap * math.log(kap / (4 * math.e * t_c)))
            c = g**i / (gauss * abs(osc) / math.sqrt(kap))
            recs.append(synthetic(j=i + 1, kappa=kap, c=c))
        prof = term_profile(dataset(*recs), "motohashi_5_1", {"T": t_c, "delta": delta}, ctx, cfg)
        for row in prof.rows[1:]:
            assert abs(row[4] - g) < 1e-12

    def test_starter_gaussian_decay(self, ctx, cfg, starter_dataset):
        prof = term_profile(starter_dataset, "motohashi_5_1", {"T": 100.0, "delta": 10.0}, ctx, cfg)
        # oracle: direct factor evaluation at the even forms
        even = [r for r in starter_dataset.records if r.c > 0]
        mags = {}
        for r in even:
            gauss = math.exp(-((10.0 * r.kappa / 200.0) ** 2))
            osc = math.sin(r.kappa * math.log(r.kappa / (4 * math.e * 100.0)))
            mags[r.j] = math.pi / math.sqrt(200.0) * r.c / math.sqrt(r.kappa) * abs(osc) * gauss
        for row in prof.rows:
            if row[0] in mags:
                assert abs(row[2] - mags[row[0]]) < 1e-12 * max(1.0, mags[row[0]])

    def test_csv_lines(self, ctx, cfg, starter_dataset):
        prof = term_profile(starter_dataset, "integral_E2", {"T": 500.0}, ctx, cfg)
        lines = prof.to_csv_lines()
        assert lines[0] == "j,kappa,term_magnitude,cumulative,decay_ratio"
        assert len(lines) == 11
