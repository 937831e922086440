"""Checkpoint persistence, digests, resume determinism."""

import math
import os

import numpy as np
import pytest

from zetalab import moments, quadrature
from zetalab.checkpoint import (
    FINGERPRINT_PREFIX, HEADER, HEADER_V1, MomentCheckpoint, extend_checkpoint, read_checkpoint)
from zetalab.config import QuadConfig
from zetalab.errors import CheckpointMismatch, DataParseError, DataValidationError
from zetalab.quadrature import clear_accumulators, get_accumulator, numeric_fingerprint


@pytest.fixture
def fresh():
    """The accumulators of a new process, as a resume there finds them;
    cleared again afterwards, so a seeded accumulator reaches no other test."""
    clear_accumulators()
    yield clear_accumulators
    clear_accumulators()


class TestCheckpointFile:
    def test_roundtrip_and_resume_bitwise(self, tmp_path, cfg):
        path = str(tmp_path / "cp.txt")
        cp1, (v1, e1) = extend_checkpoint(path, 1, 500.0, cfg)
        assert cp1.grid[-1][0] <= 500.0
        cp2, (v2, e2) = extend_checkpoint(path, 1, 1000.0, cfg, resume=True)
        # fresh run to 1000 in a second file gives the identical prefix rows
        path_b = str(tmp_path / "cp_fresh.txt")
        cp3, (v3, e3) = extend_checkpoint(path_b, 1, 1000.0, cfg)
        assert cp2.grid == cp3.grid
        assert v2 == v3

    def test_digest_mismatch_refused(self, tmp_path, cfg):
        path = str(tmp_path / "cp.txt")
        extend_checkpoint(path, 1, 200.0, cfg)
        other = QuadConfig(nodes=8)
        with pytest.raises(CheckpointMismatch):
            extend_checkpoint(path, 1, 400.0, other, resume=True)

    def test_file_under_the_gauss_legendre_pair_digest_refused(self, tmp_path, cfg):
        # b4d5fb7713ea0486 is the default digest of the n/2n Gauss-Legendre
        # panel pair, before the panel rule entered the digest; 3a5ddcb906fa6a3b
        # that of the Gauss-Kronrod rule while QuadConfig still carried the
        # kernel's t_switch and rs_terms; 1ec07b3dd89ac4cf that of kernel zk2,
        # whose Euler-Maclaurin branch summed a fixed 160 terms; ddd102d5a58bab53
        # that of panels one mesh cell wide; d530efdc928fae25 and
        # 17673b449790639f those of panels two cells wide under kernels zk3 and zk4
        for old in ("b4d5fb7713ea0486", "3a5ddcb906fa6a3b", "1ec07b3dd89ac4cf", "ddd102d5a58bab53",
                    "d530efdc928fae25", "17673b449790639f"):
            path = tmp_path / ("cp-%s.txt" % old)
            extend_checkpoint(str(path), 1, 200.0, cfg)
            path.write_text(path.read_text().replace(cfg.digest(), old))
            with pytest.raises(CheckpointMismatch) as ei:
                extend_checkpoint(str(path), 1, 300.0, cfg, resume=True)
            msg = str(ei.value)
            assert old in msg and cfg.digest() in msg
            assert "does not reproduce" not in msg

    def test_fingerprint_recorded_after_header(self, tmp_path, cfg):
        path = tmp_path / "cp.txt"
        cp, _ = extend_checkpoint(str(path), 1, 200.0, cfg)
        lines = path.read_text().splitlines()
        assert lines[1] == FINGERPRINT_PREFIX + numeric_fingerprint()
        assert cp.fingerprint == numeric_fingerprint()

    def test_file_without_fingerprint_still_resumes(self, tmp_path, cfg):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), 1, 200.0, cfg)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        assert read_checkpoint(str(path), 1).fingerprint is None
        cp, _ = extend_checkpoint(str(path), 1, 300.0, cfg, resume=True)
        assert cp.grid[-1][0] > 200.0

    def test_mismatch_names_both_fingerprints(self, tmp_path, cfg):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), 1, 200.0, cfg)
        lines = path.read_text().splitlines()
        # As if written on another host whose last bits differ.
        lines[1] = FINGERPRINT_PREFIX + "forged host"
        k, t, v, e, d = lines[-1].split(",")
        lines[-1] = ",".join([k, t, repr(math.nextafter(float(v), math.inf)), e, d])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointMismatch) as ei:
            extend_checkpoint(str(path), 1, 300.0, cfg, resume=True)
        msg = str(ei.value)
        assert "does not reproduce" in msg
        assert "forged host" in msg and numeric_fingerprint() in msg

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,10.0,1.0,0.0,deadbeef\n")
        with pytest.raises(DataParseError):
            read_checkpoint(str(path), 1)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# zetalab-checkpoint v1\n1,xx,1.0,0.0,deadbeef\n")
        with pytest.raises(DataParseError) as ei:
            read_checkpoint(str(path), 1)
        assert ei.value.line == 2

    def test_invariants_validated(self):
        with pytest.raises(DataValidationError):
            MomentCheckpoint(1, [(10.0, 1.0, 0.0), (5.0, 2.0, 0.0)], "d").validate()
        with pytest.raises(DataValidationError):
            MomentCheckpoint(1, [(5.0, 2.0, 0.0), (10.0, 1.0, 0.0)], "d").validate()

    def test_grid_monotone(self, tmp_path, cfg):
        path = str(tmp_path / "cp.txt")
        cp, _ = extend_checkpoint(path, 2, 350.0, cfg)
        ts = [row[0] for row in cp.grid]
        vs = [row[1] for row in cp.grid]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(b >= a for a, b in zip(vs, vs[1:]))

    def test_missing_file_returns_none(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "nope.txt"), 1) is None


def _write_and_reseed(path, k, t_first, t_resume, cfg, fresh):
    """A file to t_first, then a resume to t_resume as in a new process."""
    cp1, _ = extend_checkpoint(path, k, t_first, cfg)
    fresh()
    cp2, value = extend_checkpoint(path, k, t_resume, cfg, resume=True)
    return cp1, cp2, value


def _v2_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#") and ";" in line]


class TestSeededResume:
    @pytest.mark.parametrize("t_first", [1300.0, 2500.0])
    def test_z_is_evaluated_only_above_the_seed_row(self, tmp_path, cfg, fresh, monkeypatch, t_first):
        path = str(tmp_path / "cp.txt")
        cp1, _ = extend_checkpoint(path, 1, t_first, cfg)
        fresh()
        seen = []
        integrand = quadrature.moment_integrand

        def spy(ts, k):
            seen.append(float(np.min(ts)))
            return integrand(ts, k)

        monkeypatch.setattr(quadrature, "moment_integrand", spy)
        cp2, value = extend_checkpoint(path, 1, t_first + 500.0, cfg, resume=True)
        monkeypatch.undo()
        seed_t = cp2.resume.seed_t
        j = [t for t, _, _ in cp1.grid].index(seed_t)
        assert 0 < seed_t <= cp1.grid[-2][0] and cp2.resume.verified_t == cp1.grid[-1][0]
        assert min(seen) >= seed_t
        assert cp2.resume.panels == cp1.rows[-1][3] - cp1.rows[j][3]
        fresh()
        cp3, fresh_value = extend_checkpoint(str(tmp_path / "fresh.txt"), 1, t_first + 500.0, cfg)
        assert (cp2.rows, value) == (cp3.rows, fresh_value)
        assert (tmp_path / "cp.txt").read_text() == (tmp_path / "fresh.txt").read_text()

    def test_seed_moves_down_until_the_row_above_determines_it(self, tmp_path, cfg, fresh):
        _, cp, _ = _write_and_reseed(str(tmp_path / "cp.txt"), 1, 2400.0, 2900.0, cfg, fresh)
        rows = cp.rows
        ts = [r[0] for r in rows]
        j, last = ts.index(cp.resume.seed_t), ts.index(cp.resume.verified_t)
        assert get_accumulator(1, cfg).bounds[0] == cp.resume.seed_t

        def pinned(i):
            acc = quadrature.MomentAccumulator(1, cfg, rows[i])
            acc.ensure(ts[i + 1])
            return acc.pins_origin(acc.index(ts[i + 1]))

        # at this T the row above the second-to-last one does not determine it
        assert j < last - 1
        assert pinned(j) and not any(pinned(i) for i in range(j + 1, last))

    @pytest.mark.parametrize("new_process", [True, False], ids=["seeded", "extended"])
    @pytest.mark.parametrize("field, to", [("v", math.inf), ("v", -math.inf), ("T", math.inf),
                                           ("vu", math.inf), ("e", -math.inf), ("eu", math.inf)])
    @pytest.mark.parametrize("t_first", [500.0, 2500.0])
    def test_seed_row_one_ulp_off_refused(self, tmp_path, cfg, fresh, new_process, field, to, t_first):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), 1, t_first, cfg)
        lines = path.read_text().splitlines()
        k, t, v, e, rest = lines[-2].split(",")
        d, n, vu, eu = rest.split(";")
        row = {"T": t, "v": v, "e": e, "vu": vu, "eu": eu}
        row[field] = repr(math.nextafter(float(row[field]), to))
        lines[-2] = "%s,%s,%s,%s,%s;%s;%s;%s" % (
            k, row["T"], row["v"], row["e"], d, n, row["vu"], row["eu"])
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        if new_process:
            fresh()
        with pytest.raises(CheckpointMismatch) as ei:
            extend_checkpoint(str(path), 1, t_first + 100.0, cfg, resume=True)
        assert "does not reproduce" in str(ei.value)
        assert path.read_bytes() == before
        assert get_accumulator(1, cfg).bounds[0] == 0.0  # no seed left from the refused row

    @pytest.mark.parametrize("query", ["integrate_moment", "mean_square_e2", "boundary_grid",
                                       "integral_of_e2", "cumulative_at"])
    def test_queries_below_the_seed_equal_a_run_from_0(self, tmp_path, cfg, fresh, query):
        calls = {
            "integrate_moment": lambda: moments.integrate_moment(2, 150.0, 2400.0, cfg),
            "mean_square_e2": lambda: moments.mean_square_e2(
                2400.0, cfg, snapshots=[100.0, 1333.3, 2200.0]),
            "boundary_grid": lambda: [q.tolist() for q in get_accumulator(2, cfg).boundary_grid(50.0, 2200.0)],
            "integral_of_e2": lambda: moments.integral_of_e2(2400.0, cfg),
            "cumulative_at": lambda: [q.tolist() for q in get_accumulator(2, cfg).cumulative_at([0.0, 120.5, 2310.0])],
        }
        _, cp, _ = _write_and_reseed(str(tmp_path / "cp.txt"), 2, 2600.0, 3000.0, cfg, fresh)
        acc = get_accumulator(2, cfg)
        assert acc.base > 0 and acc.bounds[0] == cp.resume.seed_t
        seeded = calls[query]()
        fresh()
        assert seeded == calls[query]()

    def test_resume_to_a_lower_t_appends_nothing(self, tmp_path, cfg, fresh):
        path = tmp_path / "cp.txt"
        stored, _ = extend_checkpoint(str(path), 1, 1000.0, cfg)
        before = path.read_bytes()
        fresh()
        cp, value = extend_checkpoint(str(path), 1, 750.0, cfg, resume=True)
        assert path.read_bytes() == before and cp.grid == stored.grid
        fresh()
        _, fresh_value = extend_checkpoint(str(tmp_path / "fresh.txt"), 1, 750.0, cfg)
        assert value == fresh_value

    def test_front_pass_refuses_a_seed_that_does_not_reproduce(self, tmp_path, cfg, fresh):
        _, cp, _ = _write_and_reseed(str(tmp_path / "cp.txt"), 1, 500.0, 600.0, cfg, fresh)
        t, v, e, n, vu, eu = cp.rows[-3]
        fresh()
        acc = get_accumulator(1, cfg, (t, math.nextafter(v, math.inf), e, n, vu, eu))
        acc.ensure(700.0)
        with pytest.raises(CheckpointMismatch, match="does not reproduce"):
            acc.cumulative_to(100.0)

    def test_v1_file_resumes_and_is_rewritten_as_v2(self, tmp_path, cfg, fresh, monkeypatch):
        v2 = tmp_path / "v2.txt"
        cp, _ = extend_checkpoint(str(v2), 1, 500.0, cfg)
        v1 = tmp_path / "v1.txt"
        lines = [HEADER_V1, FINGERPRINT_PREFIX + numeric_fingerprint()]
        lines += ["1,%r,%r,%r,%s" % (t, v, e, cp.config_digest) for t, v, e in cp.grid]
        v1.write_text("\n".join(lines) + "\n")
        assert read_checkpoint(str(v1), 1).grid == cp.grid
        fresh()
        calls = []

        def spy(name):
            real = getattr(os, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("fsync", "replace"):
            monkeypatch.setattr(os, name, spy(name))
        resumed, value = extend_checkpoint(str(v1), 1, 1000.0, cfg, resume=True)
        monkeypatch.undo()
        assert calls == ["fsync", "replace"]  # the new file is on disk before it replaces the old one
        assert resumed.resume.seed_t == 0.0
        fresh()
        whole, fresh_value = extend_checkpoint(str(tmp_path / "fresh.txt"), 1, 1000.0, cfg)
        assert v1.read_text().splitlines()[0] == HEADER
        assert v1.read_text() == (tmp_path / "fresh.txt").read_text()
        assert (resumed.rows, value) == (whole.rows, fresh_value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.txt", "v1.txt", "v2.txt"]

    @pytest.mark.parametrize("line", [FINGERPRINT_PREFIX + "forged host", None])
    def test_file_of_another_fingerprint_is_rewritten_so_the_next_resume_seeds(
            self, tmp_path, cfg, fresh, line):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), 1, 1000.0, cfg)
        lines = path.read_text().splitlines()
        lines[1:2] = [line] if line else []
        path.write_text("\n".join(lines) + "\n")
        fresh()
        first, _ = extend_checkpoint(str(path), 1, 1300.0, cfg, resume=True)
        assert first.resume.seed_t == 0.0
        assert path.read_text().splitlines()[1] == FINGERPRINT_PREFIX + numeric_fingerprint()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.txt"]
        fresh()
        second, value = extend_checkpoint(str(path), 1, 1500.0, cfg, resume=True)
        assert 0.0 < second.resume.seed_t < second.resume.verified_t == first.rows[-1][0]
        fresh()
        whole, fresh_value = extend_checkpoint(str(tmp_path / "fresh.txt"), 1, 1500.0, cfg)
        assert (second.rows, value) == (whole.rows, fresh_value)
        assert path.read_text() == (tmp_path / "fresh.txt").read_text()

    def test_file_of_another_fingerprint_must_give_every_row_back(self, tmp_path, cfg, fresh):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), 1, 1000.0, cfg)
        lines = path.read_text().splitlines()
        lines[1] = FINGERPRINT_PREFIX + "forged host"
        k, t, v, rest = lines[5].split(",", 3)
        lines[5] = ",".join([k, t, repr(math.nextafter(float(v), math.inf)), rest])
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        fresh()
        with pytest.raises(CheckpointMismatch, match="does not reproduce.*forged host"):
            extend_checkpoint(str(path), 1, 1200.0, cfg, resume=True)
        assert path.read_bytes() == before

    def test_v1_file_of_one_k_takes_rows_of_another_k_and_stays_v1(self, tmp_path, cfg, fresh):
        path = tmp_path / "v1.txt"
        cp1, _ = extend_checkpoint(str(tmp_path / "v2.txt"), 1, 500.0, cfg)
        lines = [HEADER_V1, FINGERPRINT_PREFIX + numeric_fingerprint()]
        lines += ["1,%r,%r,%r,%s" % (t, v, e, cfg.digest()) for t, v, e in cp1.grid]
        path.write_text("\n".join(lines) + "\n")
        before = path.read_text()
        fresh()
        cp2, _ = extend_checkpoint(str(path), 2, 300.0, cfg, resume=True)
        text = path.read_text()
        assert text.startswith(before) and not _v2_rows(text)
        assert read_checkpoint(str(path), 1).grid == cp1.grid
        assert read_checkpoint(str(path), 2).grid == cp2.grid
        assert cp2.resume is None
        fresh()
        assert cp2.grid == extend_checkpoint(str(tmp_path / "k2.txt"), 2, 300.0, cfg)[0].grid

    def test_each_k_of_a_v1_file_resumes_from_0(self, tmp_path, cfg, fresh):
        path = tmp_path / "v1.txt"
        rows = {}
        for k, t in ((1, 500.0), (2, 300.0)):
            fresh()
            rows[k] = extend_checkpoint(str(tmp_path / ("k%d.txt" % k)), k, t, cfg)[0].grid
        lines = [HEADER_V1, FINGERPRINT_PREFIX + numeric_fingerprint()]
        lines += ["%d,%r,%r,%r,%s" % (k, t, v, e, cfg.digest()) for k in (1, 2) for t, v, e in rows[k]]
        path.write_text("\n".join(lines) + "\n")
        for k, t in ((1, 700.0), (2, 450.0)):
            fresh()
            cp, value = extend_checkpoint(str(path), k, t, cfg, resume=True)
            assert cp.resume.seed_t == 0.0 and cp.resume.verified_t == rows[k][-1][0]
            fresh()
            whole, fresh_value = extend_checkpoint(str(tmp_path / ("k%d-fresh.txt" % k)), k, t, cfg)
            assert (cp.grid, value) == (whole.grid, fresh_value)
            assert read_checkpoint(str(path), k).grid == whole.grid
        assert not _v2_rows(path.read_text())

    @pytest.mark.parametrize("sums, invariant", [
        ([(3, 1.0, 0.0), (3, 2.0, 0.0)], "strictly-increasing-n"),
        ([(3, 2.0, 0.0), (5, 1.0, 0.0)], "non-decreasing-value-u"),
        ([(3, 1.0, 0.0), (5, 2.0, -1e-300)], "nonnegative-err-u"),
    ])
    def test_v2_invariants_validated(self, sums, invariant):
        grid = [(5.0, 1.0, 0.0), (10.0, 2.0, 0.0)]
        cp = MomentCheckpoint(1, [g + s for g, s in zip(grid, sums)], "d")
        with pytest.raises(DataValidationError) as ei:
            cp.validate()
        assert ei.value.invariant == invariant

    def test_negative_err_named(self):
        with pytest.raises(DataValidationError) as ei:
            MomentCheckpoint(1, [(5.0, 1.0, 0.0), (10.0, 2.0, -1.0)], "d").validate()
        assert ei.value.invariant == "nonnegative-err"

    def test_row_without_the_v2_columns_refused(self, tmp_path, cfg):
        path = tmp_path / "cp.txt"
        path.write_text("%s\n1,100.0,90.0,0.0,%s\n" % (HEADER, cfg.digest()))
        with pytest.raises(DataParseError) as ei:
            read_checkpoint(str(path), 1)
        assert ei.value.line == 2
