"""The command-line front end against the library calls it wraps."""

import csv
import json
import math

import pytest

import _frozen as F
from zetalab import checkpoint, cli
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
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["T"], r["int_E2_sq"], r["ratio_T2"]) for r in rows] == table

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
