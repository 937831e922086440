"""Spectral dataset handling and Motohashi's spectral sum."""

import math
from fractions import Fraction

import pytest

from zetalab.errors import DataParseError, DataValidationError
from zetalab.spectral import (
    MaassFormRecord,
    SpectralDataset,
    load_spectral_dataset,
    motohashi_spectral_sum,
)


def synthetic(kappa=10.0, c=1.0, eps=1, j=1):
    return MaassFormRecord(j=j, kappa=kappa, c=c, eps=eps)


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


class TestMotohashiSum:
    def test_empty_dataset(self, cfg):
        ds = dataset()
        r = motohashi_spectral_sum(100.0, 10.0, ds, cfg=cfg)
        assert r.value == 0.0 and r.terms_used == 0
        assert r.truncation_bound > 0

    def test_single_form_closed_form(self, cfg):
        ds = dataset(synthetic(kappa=10.0, c=1.0))
        r = motohashi_spectral_sum(100.0, 10.0, ds, cfg=cfg)
        expect = (
            math.pi
            / math.sqrt(2 * 100.0)
            * 1.0
            / math.sqrt(10.0)
            * math.sin(10.0 * math.log(10.0 / (4 * math.e * 100.0)))
            * math.exp(-((10.0 * 10.0 / 200.0) ** 2))
        )
        assert abs(r.value - expect) < 1e-15

    def test_admissibility_flag(self, cfg):
        ds = dataset(synthetic())
        r = motohashi_spectral_sum(10000.0, 30.0, ds, cfg=cfg)
        lo, hi = r.metadata["delta_window_A1"]
        assert (lo <= 30.0 <= hi) == r.metadata["delta_admissible_A1"]

    @pytest.mark.parametrize("t_center,delta", [(200.0, 20.0), (1000.0, 50.0), (3000.0, 100.0)])
    def test_value_is_the_correctly_rounded_sum_of_the_terms(self, cfg, starter_dataset,
                                                             t_center, delta):
        r = motohashi_spectral_sum(t_center, delta, starter_dataset, cfg=cfg)
        assert r.terms_used == len(r.terms) == len(starter_dataset)
        assert r.value == float(sum(map(Fraction, r.terms)))
