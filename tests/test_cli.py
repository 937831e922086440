"""The command-line front end against the library calls it wraps."""

import csv
import json
import math

import pytest

import _frozen as F
from zetalab import checkpoint, cli, quadrature
from zetalab.checkpoint import read_checkpoint
from zetalab.config import QuadConfig
from zetalab.laplace import atkinson_expansion, kober_main, laplace_moment_grid
from zetalab.moments import mean_square_e2, twelfth_moment_table
from zetalab.scans import e2_zero_gap_table
from zetalab.zeta import zeta_sample


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class TestZeta:
    def test_row_equals_zeta_sample(self, tmp_path, ctx):
        out = tmp_path / "zeta.csv"
        assert cli.main(["zeta", "--t", "100", "--format", "csv", "--out", str(out)]) == 0
        (row,) = read_rows(out)
        got = [float(row[c]) for c in ("t", "re_zeta", "im_zeta", "abs_zeta", "err")]
        s = zeta_sample(100.0, ctx)
        assert got == [s.t, float(s.value.real), float(s.value.imag), float(abs(s.value)), s.abs_err]


class TestExplore:
    def test_meansq_e2_rows_equal_the_library_table(self, tmp_path, ctx, cfg):
        out = tmp_path / "meansq.csv"
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250,500",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        _, table = mean_square_e2(500.0, ctx, cfg, snapshots=[250.0, 500.0])
        rows = [(float(r["T"]), float(r["int_E2_sq"]), float(r["ratio_T2"]))
                for r in read_rows(out)]
        assert rows == table

    def test_meansq_e2_jsonl(self, tmp_path, ctx, cfg):
        out = tmp_path / "meansq.jsonl"
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250",
                "--format", "jsonl", "--out", str(out)]
        assert cli.main(argv) == 0
        _, table = mean_square_e2(250.0, ctx, cfg)
        *rows, meta = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["T"], r["int_E2_sq"], r["ratio_T2"]) for r in rows] == table
        assert list(meta) == ["_meta"]

    def test_twelfth_rows_equal_the_library_table(self, tmp_path, ctx, cfg):
        out = tmp_path / "twelfth.csv"
        argv = ["explore", "--table", "twelfth", "--T-list", "300,100",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = [(float(r["T"]), float(r["integral"]), float(r["ratio_T2_log17"]),
                 float(r["err_bound"])) for r in read_rows(out)]
        assert rows == twelfth_moment_table([100.0, 300.0], ctx, cfg)

    def test_e2_gaps_rows_equal_the_library_table(self, tmp_path, ctx, cfg):
        out = tmp_path / "gaps.csv"
        argv = ["explore", "--table", "e2-gaps", "--from", "500", "--to", "650",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = [(int(r["n"]), float(r["u_n"]), float(r["gap"]), float(r["log_gap_over_log_u"]))
                for r in read_rows(out)]
        table = e2_zero_gap_table(500.0, 650.0, ctx, cfg)
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

    def test_resume_comment_says_what_the_resume_did(self, tmp_path):
        ckpt = str(tmp_path / "m.ckpt")
        argv = ["moment", "--k", "1", "--checkpoint", ckpt, "--format", "csv"]
        first, resumed = tmp_path / "first.csv", tmp_path / "resumed.csv"
        assert cli.main(argv + ["--T", "1000", "--out", str(first)]) == 0
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
    @pytest.mark.parametrize("k,main_term", [(1, lambda s, ctx: kober_main(s / 2.0, ctx)),
                                             (2, atkinson_expansion)], ids=["k1", "k2"])
    def test_main_term_rows_equal_the_library_calls(self, tmp_path, ctx, cfg, k, main_term):
        out = tmp_path / "laplace.csv"
        argv = ["laplace", "--k", str(k), "--s-grid", "0.4,0.1", "--main-term",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = [(float(r["s"]), float(r["L_k"]), float(r["err_bound"]), int(r["panels"]),
                 float(r["main_term"]), float(r["difference"])) for r in read_rows(out)]
        expect = []
        for s, r in zip([0.4, 0.1], laplace_moment_grid(k, [0.4, 0.1], ctx, cfg)):
            mt = main_term(s, ctx)
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
                                      "l2_gamma_variant=printed"])
    def test_removed_run_keys_are_data_errors(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        argv = ["explore", "--table", "meansq-e2", "--T-list", "250", "--config", str(conf)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "unknown config key %r" % line.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("text,code,reason", [
        ("quad.nodes=abc", cli.EXIT_DATA, "line 2: bad value for quad.nodes"),
        ("precision_bits=12x", cli.EXIT_DATA, "line 2: bad value for precision_bits"),
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
        ["explore", "--table", "twelfth", "--T-list", "nan"],
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
        assert not ckpt.exists()

    @pytest.mark.parametrize("s", ["nan", "inf", "0.1,inf"])
    def test_laplace_s(self, tmp_path, capsys, s):
        argv = ["laplace", "--k", "2", "--s-grid", s, "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "s must be finite" in capsys.readouterr().err
