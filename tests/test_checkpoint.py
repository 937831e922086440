"""Checkpoint persistence, digests, resume determinism."""

import math

import pytest

from zetalab.checkpoint import (
    FINGERPRINT_PREFIX, MomentCheckpoint, extend_checkpoint, read_checkpoint)
from zetalab.config import QuadConfig
from zetalab.errors import CheckpointMismatch, DataParseError, DataValidationError
from zetalab.quadrature import numeric_fingerprint


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
        # that of panels one mesh cell wide
        for old in ("b4d5fb7713ea0486", "3a5ddcb906fa6a3b", "1ec07b3dd89ac4cf", "ddd102d5a58bab53"):
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
