"""Checkpoint persistence, digests, resume determinism."""

import math
import os

import numpy as np
import pytest

from zetalab import cli, moments, quadrature, zkernel
from zetalab.checkpoint import FINGERPRINT_PREFIX, HEADER, MomentCheckpoint, extend_checkpoint, read_checkpoint
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
        # 17673b449790639f those of panels two cells wide under kernels zk3 and zk4;
        # bd47d267227b65fe that of four-cell panels under kernel zk4, whose anchor
        # sum accumulated its Taylor moments elementwise, one n at a time;
        # 4b58e21ac53a1c97 that of four-cell panels under zk5 with adaptive
        # bisection, whose mesh from 0 had three panels fewer; 8d3d6628496ae167
        # that of one rule per graded panel under zk5, whose theta was scipy's
        # log-gamma on both branches; ccef8502108d5763 that of zk6, whose EM
        # branch still took theta from scipy's log-gamma; 566eb50c0aa84c5c that
        # of a QuadConfig that still held checkpoint_step and weight_cmaj
        for old in ("b4d5fb7713ea0486", "3a5ddcb906fa6a3b", "1ec07b3dd89ac4cf", "ddd102d5a58bab53",
                    "d530efdc928fae25", "17673b449790639f", "bd47d267227b65fe", "4b58e21ac53a1c97",
                    "8d3d6628496ae167", "ccef8502108d5763", "566eb50c0aa84c5c"):
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
        path.write_text("%s\n1,xx,1.0,0.0,deadbeef;1;1.0;0.0\n" % HEADER)
        with pytest.raises(DataParseError) as ei:
            read_checkpoint(str(path), 1)
        assert ei.value.line == 2

    @pytest.mark.parametrize("version, row", [
        ("v1", "1,100.0,90.0,0.0,%s"),
        ("v2", "1,100.0,90.0,0.0,%s;4;9000.0;0.0"),
    ], ids=["v1", "v2"])
    def test_old_format_refused(self, tmp_path, cfg, capsys, version, row):
        path = tmp_path / "old.txt"
        path.write_text("# zetalab-checkpoint %s\n%s%s\n%s\n"
                        % (version, FINGERPRINT_PREFIX, numeric_fingerprint(), row % cfg.digest()))
        before = path.read_bytes()
        reason = "%s is no longer read" % version
        with pytest.raises(DataParseError, match=reason) as ei:
            read_checkpoint(str(path), 1)
        assert ei.value.line == 1
        out = tmp_path / "out.csv"
        argv = ["moment", "--k", "1", "--T", "300", "--checkpoint", str(path), "--resume", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert reason in capsys.readouterr().err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]

    @pytest.mark.parametrize("to", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["T", "v", "e", "vu", "eu", "cv", "ce", "cvu", "ceu"])
    def test_non_finite_field_refused(self, tmp_path, cfg, fresh, field, to):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), 1, 1000.0, cfg)
        lines = path.read_text().splitlines()
        k, t, v, e, rest = lines[6].split(",")  # the fifth row
        d, n, *sums = rest.split(";")
        row = dict(zip(["T", "v", "e", "vu", "eu", "cv", "ce", "cvu", "ceu"], [t, v, e] + sums))
        row[field] = repr(to)
        lines[6] = "%s,%s,%s,%s,%s;%s;%s" % (k, row.pop("T"), row.pop("v"), row.pop("e"), d, n, ";".join(row.values()))
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        with pytest.raises(DataValidationError) as ei:
            read_checkpoint(str(path), 1)
        assert ei.value.invariant == "finite"
        assert "non-finite %s=%r at T=%r" % (field, to, to if field == "T" else float(t)) in str(ei.value)
        fresh()
        with pytest.raises(DataValidationError):
            extend_checkpoint(str(path), 1, 1100.0, cfg, resume=True)
        assert path.read_bytes() == before

    def test_invariants_validated(self):
        with pytest.raises(DataValidationError):
            MomentCheckpoint(1, [(10.0, 1.0, 0.0, 3, 1.0, 0.0), (5.0, 2.0, 0.0, 5, 2.0, 0.0)], "d").validate()
        with pytest.raises(DataValidationError):
            MomentCheckpoint(1, [(5.0, 2.0, 0.0, 3, 1.0, 0.0), (10.0, 1.0, 0.0, 5, 2.0, 0.0)], "d").validate()

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


class TestSeededResume:
    @pytest.mark.parametrize("k, t_first", [pytest.param(1, 1300.0, id="1300.0"), pytest.param(1, 2500.0, id="2500.0"),
                                            pytest.param(2, 1500.0, id="k2-1500.0")])
    def test_z_is_evaluated_only_above_the_seed_row(self, tmp_path, cfg, fresh, monkeypatch, k, t_first):
        path = str(tmp_path / "cp.txt")
        cp1, _ = extend_checkpoint(path, k, t_first, cfg)
        fresh()
        seen = []
        z_block = zkernel.z_block

        def spy(ts):
            seen.append(float(np.min(ts)))
            return z_block(ts)

        monkeypatch.setattr(zkernel, "z_block", spy)
        cp2, value = extend_checkpoint(path, k, t_first + 500.0, cfg, resume=True)
        monkeypatch.undo()
        seed_t = cp2.resume.seed_t
        assert seed_t == cp1.grid[-2][0] and cp2.resume.verified_t == cp1.grid[-1][0]
        assert min(seen) >= seed_t
        assert cp2.resume.panels == cp1.rows[-1][3] - cp1.rows[-2][3]
        fresh()
        cp3, fresh_value = extend_checkpoint(str(tmp_path / "fresh.txt"), k, t_first + 500.0, cfg)
        assert (cp2.rows, value) == (cp3.rows, fresh_value)
        assert (tmp_path / "cp.txt").read_text() == (tmp_path / "fresh.txt").read_text()

    @pytest.mark.parametrize("new_process", [True, False], ids=["seeded", "extended"])
    @pytest.mark.parametrize("field, to", [("v", math.inf), ("v", -math.inf), ("T", math.inf),
                                           ("vu", math.inf), ("e", -math.inf), ("eu", math.inf)])
    @pytest.mark.parametrize("k, t_first", [pytest.param(1, 500.0, id="500.0"), pytest.param(1, 2500.0, id="2500.0"),
                                            pytest.param(2, 1500.0, id="k2-1500.0")])
    def test_seed_row_one_ulp_off_refused(self, tmp_path, cfg, fresh, new_process, field, to, k, t_first):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), k, t_first, cfg)
        lines = path.read_text().splitlines()
        _, t, v, e, rest = lines[-2].split(",")
        d, n, vu, eu, *comp = rest.split(";")
        row = {"T": t, "v": v, "e": e, "vu": vu, "eu": eu}
        row[field] = repr(math.nextafter(float(row[field]), to))
        lines[-2] = "%d,%s,%s,%s,%s;%s;%s;%s;%s" % (
            k, row["T"], row["v"], row["e"], d, n, row["vu"], row["eu"], ";".join(comp))
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        if new_process:
            fresh()
        with pytest.raises(CheckpointMismatch) as ei:
            extend_checkpoint(str(path), k, t_first + 100.0, cfg, resume=True)
        assert "does not reproduce" in str(ei.value)
        assert path.read_bytes() == before
        assert get_accumulator(k, cfg).bounds[0] == 0.0  # no seed left from the refused row

    @pytest.mark.parametrize("to", [-math.inf, math.inf])
    @pytest.mark.parametrize("t_first", [1000.0, 2500.0])
    def test_seed_row_off_the_mesh_from_0_refused(self, tmp_path, cfg, fresh, to, t_first):
        # the seed's T an ulp off and the last row folded from it: the last
        # row reproduces from the seed, so only the mesh from 0 shows it
        path = tmp_path / "cp.txt"
        stored, _ = extend_checkpoint(str(path), 1, t_first, cfg)
        t, v, e, n, vu, eu, cv, ce, cvu, ceu = stored.rows[-2]
        off = (math.nextafter(t, to),) + stored.rows[-2][1:]
        # the row folded from off: the panels of the mesh from 0 above panel
        # n, the first from off, each integrated alone, summed by a left fold
        # from the seed's sums, with the fold of the two-sum errors of its
        # steps from the seed's compensations
        bs = quadrature.panel_bounds(np.arange(n, stored.rows[-1][3] + 1), cfg)
        bs[0] = off[0]
        sums = quadrature.PanelBatch(lambda u: zkernel.moment_integrand(u, 1), cfg).run(bs[:-1], bs[1:])
        tops = []
        for s0, c0, q in zip((v, vu, e, eu), (cv, cvu, ce, ceu), sums):
            p = np.cumsum(np.concatenate([[s0], q]))
            b = p[1:] - p[:-1]
            tops += [float(p[-1]), float(np.cumsum(np.concatenate([[c0], (p[:-1] - (p[1:] - b)) + (q - b)]))[-1])]
        tv, tcv, tvu, tcvu, te, tce, teu, tceu = tops
        top = (float(bs[-1]), tv, te, n + len(bs) - 1, tvu, teu, tcv, tce, tcvu, tceu)
        lines = path.read_text().splitlines()
        lines[-2:] = ["1,%r,%r,%r,%s;%d;%r;%r;%r;%r;%r;%r" % (r[:3] + (cfg.digest(),) + r[3:]) for r in (off, top)]
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        fresh()
        with pytest.raises(CheckpointMismatch, match="T=%r does not reproduce" % off[0]):
            extend_checkpoint(str(path), 1, t_first + 100.0, cfg, resume=True)
        assert path.read_bytes() == before
        assert get_accumulator(1, cfg).bounds[0] == 0.0

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
        t, v, *rest = cp.rows[-3]
        fresh()
        acc = get_accumulator(1, cfg, (t, math.nextafter(v, math.inf), *rest))
        acc.ensure(700.0)
        with pytest.raises(CheckpointMismatch, match="does not reproduce"):
            acc.cumulative_to(100.0)

    @pytest.mark.parametrize("line", [FINGERPRINT_PREFIX + "forged host", None])
    def test_file_of_another_fingerprint_is_rewritten_so_the_next_resume_seeds(
            self, tmp_path, cfg, fresh, monkeypatch, line):
        path = tmp_path / "cp.txt"
        extend_checkpoint(str(path), 1, 1000.0, cfg)
        lines = path.read_text().splitlines()
        lines[1:2] = [line] if line else []
        path.write_text("\n".join(lines) + "\n")
        fresh()
        calls = []

        def spy(name):
            real = getattr(os, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("fsync", "replace"):
            monkeypatch.setattr(os, name, spy(name))
        first, _ = extend_checkpoint(str(path), 1, 1300.0, cfg, resume=True)
        monkeypatch.undo()
        assert calls == ["fsync", "replace"]  # the new file is on disk before it replaces the old one
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

    def test_file_of_another_fingerprint_and_two_k_must_give_every_row_back(self, tmp_path, cfg, fresh):
        path = tmp_path / "cp.txt"
        cp1, _ = extend_checkpoint(str(path), 1, 1000.0, cfg)
        cp2, _ = extend_checkpoint(str(path), 2, 300.0, cfg, resume=True)  # a file of k = 1 takes k = 2
        assert cp2.resume is None and read_checkpoint(str(path), 1).rows == cp1.rows
        assert read_checkpoint(str(path), 2).rows == cp2.rows
        lines = path.read_text().splitlines()
        lines[1] = FINGERPRINT_PREFIX + "forged host"
        k1 = [i for i, line in enumerate(lines) if line.startswith("1,")]
        i = k1[len(k1) // 2]
        k, t, v, rest = lines[i].split(",", 3)
        lines[i] = ",".join([k, t, repr(float(v) * (1 + 1e-9)), rest])
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        fresh()
        with pytest.raises(CheckpointMismatch, match="T=%s does not reproduce.*forged host" % t):
            extend_checkpoint(str(path), 1, 1200.0, cfg, resume=True)
        assert path.read_bytes() == before

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
            MomentCheckpoint(1, [(5.0, 1.0, 0.0, 3, 1.0, 0.0), (10.0, 2.0, -1.0, 5, 2.0, 0.0)], "d").validate()
        assert ei.value.invariant == "nonnegative-err"

    def test_row_without_the_v2_columns_refused(self, tmp_path, cfg):
        path = tmp_path / "cp.txt"
        path.write_text("%s\n1,100.0,90.0,0.0,%s\n" % (HEADER, cfg.digest()))
        with pytest.raises(DataParseError) as ei:
            read_checkpoint(str(path), 1)
        assert ei.value.line == 2
