"""The command-line front end against the library calls it wraps."""

import csv
import fcntl
import json
import math

import mpmath
import pytest

import _frozen as F
from zetalab import checkpoint, cli, quadrature
from zetalab.checkpoint import read_checkpoint
from zetalab.config import QuadConfig
from zetalab.laplace import atkinson_expansion, kober_main, laplace_moment_grid
from zetalab.moments import mean_square_e2
from zetalab.scans import e2_zero_gap_table
from zetalab.zkernel import z_block


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class TestZeta:
    def test_row_equals_z_block(self, tmp_path):
        out = tmp_path / "zeta.csv"
        assert cli.main(["zeta", "--t", "100", "--format", "csv", "--out", str(out)]) == 0
        (row,) = read_rows(out)
        z, err = z_block([100.0])
        assert list(row) == ["t", "Z", "err"]
        assert [float(row[c]) for c in row] == [100.0, z[0], err[0]]

    # across T_SWITCH (400) and the anchor-sum switch at N = 18 (t near 2035.75),
    # inside the range the Riemann-Siegel error model is certified for
    @pytest.mark.parametrize("t", [0.0, 14.134725, 100.0, 399.99, 400.01, 2035.7, 2035.8, 1e4])
    def test_err_bounds_the_distance_to_siegelz(self, tmp_path, t):
        out = tmp_path / "zeta.csv"
        assert cli.main(["zeta", "--t", repr(t), "--out", str(out)]) == 0
        (row,) = read_rows(out)
        with mpmath.workdps(30):
            assert abs(float(row["Z"]) - mpmath.siegelz(t)) <= float(row["err"])


class TestExplore:
    def test_meansq_e2_rows_equal_the_library_table(self, tmp_path, cfg):
        out = tmp_path / "meansq.csv"
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250,500",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        _, table = mean_square_e2(500.0, cfg, snapshots=[250.0, 500.0])
        rows = [(float(r["T"]), float(r["int_E2_sq"]), float(r["ratio_T2"]))
                for r in read_rows(out)]
        assert rows == table

    def test_meansq_e2_jsonl(self, tmp_path, cfg):
        out = tmp_path / "meansq.jsonl"
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250",
                "--format", "jsonl", "--out", str(out)]
        assert cli.main(argv) == 0
        _, table = mean_square_e2(250.0, cfg)
        *rows, meta = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["T"], r["int_E2_sq"], r["ratio_T2"]) for r in rows] == table
        assert list(meta) == ["_meta"]

    def test_e2_gaps_rows_equal_the_library_table(self, tmp_path, cfg):
        out = tmp_path / "gaps.csv"
        argv = ["explore", "--table", "e2-gaps", "--from", "500", "--to", "650",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = [(int(r["n"]), float(r["u_n"]), float(r["gap"]), float(r["log_gap_over_log_u"]))
                for r in read_rows(out)]
        table = e2_zero_gap_table(500.0, 650.0, cfg)
        assert len(table) >= 3 and rows == table


class TestMoment:
    def test_e2_at_20000_is_of_order_sqrt_t(self, tmp_path):
        out = tmp_path / "moment.csv"
        argv = ["moment", "--k", "2", "--T", "20000", "--checkpoint", str(tmp_path / "m.ckpt"),
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        (row,) = read_rows(out)
        assert abs(float(row["E"])) / math.sqrt(20000.0) < 200.0
        assert "P4 provenance: paper-exact,paper-exact,derived,derived,derived" in out.read_text()

    def test_jsonl_ends_with_the_comments_of_the_csv(self, tmp_path, cfg):
        ckpt = tmp_path / "m.ckpt"
        outs, notes = {}, {}
        for fmt in ("csv", "jsonl"):
            outs[fmt] = tmp_path / ("moment." + fmt)
            argv = ["moment", "--k", "1", "--T", "300", "--checkpoint", str(ckpt),
                    "--format", fmt, "--out", str(outs[fmt])]
            assert cli.main(argv) == 0
            ckpt.unlink()
        row, meta = [json.loads(line) for line in outs["jsonl"].read_text().splitlines()]
        (csv_row,) = read_rows(outs["csv"])
        assert row == {k: float(v) for k, v in csv_row.items()}
        notes = meta["_meta"]["comments"]
        assert "quad.digest=%s" % cfg.digest() in notes
        assert any(n.startswith("checkpoint=") for n in notes)
        assert any(n.startswith("P1 provenance: ") for n in notes)
        csv_notes = [line[2:] for line in outs["csv"].read_text().splitlines() if line.startswith("# ")]
        assert notes == [n.replace("output_format=csv", "output_format=jsonl") for n in csv_notes]

    def test_second_run_without_resume_leaves_the_checkpoint(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "m.ckpt"
        argv = ["moment", "--k", "1", "--T", "300", "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "moment.csv")]
        assert cli.main(argv) == 0
        before = ckpt.read_bytes()
        capsys.readouterr()
        with monkeypatch.context() as m:
            # refused before any integration
            m.setattr(checkpoint, "get_accumulator", lambda *a: pytest.fail("integrated"))
            assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(ckpt) in err and "--resume" in err
        assert ckpt.read_bytes() == before
        assert cli.main(argv + ["--resume"]) == 0
        assert not (tmp_path / "m.ckpt.lock").exists()

    def test_a_run_removes_its_lock_and_a_held_lock_refuses(self, tmp_path, capsys):
        ckpt, lock = tmp_path / "m.ckpt", tmp_path / "m.ckpt.lock"
        out = tmp_path / "moment.csv"
        argv = ["moment", "--k", "1", "--T", "300", "--checkpoint", str(ckpt), "--out", str(out)]
        assert cli.main(argv) == 0
        assert not lock.exists()
        out.unlink()
        # a run refused after taking the lock removes it too
        assert cli.main(argv) == cli.EXIT_DATA
        assert not lock.exists() and not out.exists()
        with open(lock, "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            before = ckpt.read_bytes()
            capsys.readouterr()
            assert cli.main(argv + ["--resume"]) == cli.EXIT_DATA
            assert "is locked by another process" in capsys.readouterr().err
            assert lock.exists() and ckpt.read_bytes() == before and not out.exists()

    def test_lock_file_replaced_before_the_flock_is_refused(self, tmp_path, capsys, monkeypatch):
        # As if the holder ended, unlinking its file, and a third process
        # created a new one between this process's open and its flock: the
        # flock then holds a file no longer at the path.
        ckpt, lock = tmp_path / "m.ckpt", tmp_path / "m.ckpt.lock"
        real = fcntl.flock

        def flock(fd, op):
            if op & fcntl.LOCK_EX:
                lock.unlink()
                lock.write_text("")
            return real(fd, op)

        monkeypatch.setattr(fcntl, "flock", flock)
        argv = ["moment", "--k", "1", "--T", "300", "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "moment.csv")]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "is locked by another process" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt.lock"]

    def test_resume_comment_says_what_the_resume_did(self, tmp_path):
        ckpt = str(tmp_path / "m.ckpt")
        argv = ["moment", "--k", "1", "--checkpoint", ckpt, "--format", "csv"]
        first, resumed = tmp_path / "first.csv", tmp_path / "resumed.csv"
        assert cli.main(argv + ["--T", "1300", "--out", str(first)]) == 0
        stored = read_checkpoint(ckpt, 1)
        quadrature.clear_accumulators()  # as a new process finds them
        try:
            assert cli.main(argv + ["--T", "1500", "--resume", "--out", str(resumed)]) == 0
        finally:
            quadrature.clear_accumulators()
        assert "# resume:" not in first.read_text()
        (line,) = [x for x in resumed.read_text().splitlines() if x.startswith("# resume:")]
        seed_t = float(line.split("seed T=")[1].split(",")[0])
        j = [t for t, _, _ in stored.grid].index(seed_t)
        assert 0 < j < len(stored.grid) - 1
        assert line == "# resume: seed T=%r, verified T=%r, %d panels integrated at or below it" % (
            seed_t, stored.grid[-1][0], stored.rows[-1][3] - stored.rows[j][3])


class TestLaplace:
    @pytest.mark.parametrize("k,main_term", [(1, lambda s: kober_main(s / 2.0)),
                                             (2, atkinson_expansion)], ids=["k1", "k2"])
    def test_main_term_rows_equal_the_library_calls(self, tmp_path, cfg, k, main_term):
        out = tmp_path / "laplace.csv"
        argv = ["laplace", "--k", str(k), "--s-grid", "0.4,0.1", "--main-term",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = [(float(r["s"]), float(r["L_k"]), float(r["err_bound"]), int(r["panels"]),
                 float(r["main_term"]), float(r["difference"])) for r in read_rows(out)]
        expect = []
        for s, r in zip([0.4, 0.1], laplace_moment_grid(k, [0.4, 0.1], cfg)):
            mt = main_term(s)
            expect.append((s, r.value, r.err_bound, r.panels, mt, r.value - mt))
        assert rows == expect


class TestConfig:
    def test_digest_matches_the_fixtures(self):
        assert QuadConfig().digest() == F.QUAD_DIGEST

    def test_unknown_quad_key_is_a_data_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("quad.crossover_t=30.0\n")
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250", "--config", str(conf)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "unknown config key 'quad.crossover_t'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["quad.t_switch", "quad.rs_terms"])
    def test_removed_kernel_keys_are_data_errors(self, tmp_path, capsys, key):
        # the kernel's branch policy is fixed by KERNEL_VERSION, not configured
        conf = tmp_path / "run.conf"
        conf.write_text(key + "=400.0\n")
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250", "--config", str(conf)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "unknown config key %r" % key in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["spectral_path=starter.txt", "laplace_e2_variant=printed",
                                      "l2_gamma_variant=printed", "precision_bits=128",
                                      "abs_tol=1e-12", "rel_tol=1e-12"])
    def test_removed_run_keys_are_data_errors(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250", "--config", str(conf)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "unknown config key %r" % line.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("text,code,reason", [
        ("quad.nodes=abc", cli.EXIT_DATA, "line 2: bad value for quad.nodes"),
        ("quad.max_depth=1.5", cli.EXIT_DATA, "line 2: bad value for quad.max_depth"),
        ("output_format=xml", cli.EXIT_USAGE, "output_format must be csv or jsonl"),
        ("quad.checkpoint_step=0", cli.EXIT_USAGE, "quad.checkpoint_step must be finite and > 0"),
        ("quad.panel_rel=inf", cli.EXIT_USAGE, "quad.panel_rel must be finite and > 0"),
        ("quad.gap_fraction=nan", cli.EXIT_USAGE, "quad.gap_fraction must be finite and > 0"),
        ("quad.gap_fraction=0\nquad.w_min=0", cli.EXIT_USAGE, "quad.gap_fraction must be finite and > 0"),
        ("quad.nodes=0", cli.EXIT_USAGE, "quad.nodes must be >= 1"),
        ("quad.max_depth=-1", cli.EXIT_USAGE, "quad.max_depth must be >= 0"),
        ("quad.w_min=3.0", cli.EXIT_USAGE, "quad.w_min must be <= quad.w_max"),
    ])
    def test_bad_values_are_refused_with_the_field(self, tmp_path, capsys, text, code, reason):
        conf = tmp_path / "run.conf"
        conf.write_text("# a comment line\n" + text + "\n")
        out = tmp_path / "zeta.csv"
        assert cli.main(["zeta", "--t", "10", "--config", str(conf), "--out", str(out)]) == code
        assert reason in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteInput:
    """Non-finite ranges and arguments are refused with the reason (the
    mesh of an infinite range would never end)."""

    @pytest.mark.parametrize("argv", [
        ["moment", "--k", "2", "--T", "nan"],
        ["moment", "--k", "1", "--T", "inf"],
        ["explore", "--table", "e2-gaps", "--from", "10", "--to", "inf"],
        ["explore", "--table", "meansq-e2", "--T-list", "nan"],
        ["scan", "--target", "e1", "--from", "10", "--to", "inf", "--A", "1", "--exp", "0.25"],
    ])
    def test_range_end(self, tmp_path, capsys, argv):
        ckpt = tmp_path / "m.ckpt"
        argv = argv + ["--out", str(tmp_path / "out.csv")]
        if argv[0] == "moment":
            argv += ["--checkpoint", str(ckpt)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "is not finite" in capsys.readouterr().err
        # a refused command leaves no file: no checkpoint, lock or output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_motohashi_t_is_named(self, tmp_path, capsys, t):
        out = tmp_path / "out.csv"
        argv = ["motohashi", "--T", t, "--delta", "20", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "T must be finite and > 1, got %s" % t in err and "delta" not in err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_zeta_t_is_named(self, tmp_path, capsys, t):
        out = tmp_path / "out.csv"
        assert cli.main(["zeta", "--t", t, "--out", str(out)]) == cli.EXIT_USAGE
        assert "t must be finite and >= 0, got %r" % float(t) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s", ["nan", "inf", "0.1,inf"])
    def test_laplace_s(self, tmp_path, capsys, s):
        argv = ["laplace", "--k", "2", "--s-grid", s, "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "s must be finite" in capsys.readouterr().err
