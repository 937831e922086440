"""Command-line front end: machine-first CSV / JSON-lines output.

Every subcommand echoes the effective configuration as '#' comment lines
(in json-lines, as the comments of one final "_meta" record), is
deterministic given (config, inputs), and uses the exit codes 0 success,
2 usage, 4 data validation.  Output is opened only once every value is
computed, so a refused command writes none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    CheckpointMismatch,
    DataParseError,
    DataValidationError,
    DomainError,
    ZetalabError,
)

EXIT_USAGE = 2
EXIT_DATA = 4


class _Out:
    """Renders header comments and rows as csv, or as json-lines: one object
    per row, then the comments as one final {"_meta": {"comments": [...]}}
    record (close)."""

    def __init__(self, fmt, columns, stream):
        self.fmt = fmt
        self.columns = columns
        self.stream = stream
        self.header_done = False
        self.notes = []

    def comment(self, line):
        if self.fmt == "csv":
            self.stream.write("# %s\n" % line if not line.startswith("#") else line + "\n")
        else:
            self.notes.append(line)

    def comments(self, lines):
        for line in lines:
            self.comment(line.lstrip("# "))

    def row(self, values):
        if self.fmt == "jsonl":
            self.stream.write(json.dumps(dict(zip(self.columns, values))) + "\n")
            return
        if not self.header_done:
            self.stream.write(",".join(self.columns) + "\n")
            self.header_done = True
        self.stream.write(",".join(_fmt(v) for v in values) + "\n")

    def close(self):
        if self.fmt == "jsonl" and self.notes:
            self.stream.write(json.dumps({"_meta": {"comments": self.notes}}) + "\n")
        if self.stream is not sys.stdout:
            self.stream.close()


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--format", choices=("csv", "jsonl"), help="output format override")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="zetalab",
        description="Numerical laboratory for critical-line zeta moments.",
    )
    ap.add_argument("--version", action="version", version="zetalab " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", help="Hardy's Z(t) with its error bound (zkernel.z_block)")
    p.add_argument("--t", required=True, type=float)
    _add_common(p)

    p = sub.add_parser("moment", help="running 2k-th moment with checkpointing")
    p.add_argument("--k", required=True, type=int, choices=(1, 2))
    p.add_argument("--T", required=True, type=float)
    p.add_argument("--resume", action="store_true",
                   help="extend the existing checkpoint (digest must match)")
    p.add_argument("--checkpoint", help="checkpoint file path override")
    _add_common(p)

    p = sub.add_parser("scan", help="sign-change / exceedance scan")
    p.add_argument("--target", required=True, choices=("e1", "e2", "intE2"))
    p.add_argument("--from", dest="t0", required=True, type=float)
    p.add_argument("--to", dest="t1", required=True, type=float)
    p.add_argument("--A", required=True, type=float)
    p.add_argument("--exp", required=True, type=float)
    _add_common(p)

    p = sub.add_parser("motohashi", help="smoothed fourth moment vs spectral sum")
    p.add_argument("--T", required=True, type=float)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--spectral", help="spectral dataset path (default: bundled)")
    p.add_argument("--no-spectral", action="store_true",
                   help="direct side only (missing-dataset mode)")
    _add_common(p)

    p = sub.add_parser("laplace", help="L_k(s) over an s grid")
    p.add_argument("--k", required=True, type=int, choices=(1, 2))
    p.add_argument("--s-grid", required=True,
                   help="comma-separated positive sigma values")
    p.add_argument("--main-term", action="store_true",
                   help="also print the main term: Kober's at sigma = s/2 for k=1, "
                        "the exact log-power one at s for k=2")
    _add_common(p)

    p = sub.add_parser("explore", help="exploratory tables (mean-square E2, E2 zero gaps)")
    p.add_argument("--table", required=True, choices=("meansq-e2", "e2-gaps"))
    p.add_argument("--T-list", help="comma-separated T values (meansq-e2)")
    p.add_argument("--from", dest="t0", type=float, default=500.0)
    p.add_argument("--to", dest="t1", type=float, default=3000.0)
    _add_common(p)
    return ap


def _config_from(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "format", None):
        cfg = replace(cfg, output_format=args.format)
    if getattr(args, "checkpoint", None):
        cfg = replace(cfg, checkpoint_path=args.checkpoint)
    return cfg


def _open_out(args, run_cfg, columns):
    stream = open(args.out, "w") if args.out else sys.stdout
    out = _Out(run_cfg.output_format, columns, stream)
    out.comments(run_cfg.echo_lines())
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (DataValidationError, DataParseError, CheckpointMismatch) as exc:
        print("data-error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except ZetalabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    return 0


def _dispatch(args) -> int:
    run_cfg = _config_from(args)
    cfg = run_cfg.quad

    if args.command == "zeta":
        from .zkernel import z_block

        if not (math.isfinite(args.t) and args.t >= 0):
            raise DomainError("invalid-argument: t must be finite and >= 0, got %r" % args.t)
        z, err = z_block([args.t])
        out = _open_out(args, run_cfg, ["t", "Z", "err"])
        out.row([args.t, float(z[0]), float(err[0])])
        out.close()
        return 0

    if args.command == "moment":
        return _cmd_moment(args, run_cfg, cfg)

    if args.command == "scan":
        from .scans import sign_change_scan

        rep = sign_change_scan(args.target, args.t0, args.t1, args.A, args.exp, cfg)
        out = _open_out(args, run_cfg, ["kind", "t", "value"])
        out.comment("target=%s range=[%r,%r] A=%r exp=%r grid_points=%d"
                    % (rep.target, args.t0, args.t1, args.A, args.exp, rep.grid_points))
        for t, v in rep.exceed_plus:
            out.row(["exceed_plus", t, v])
        for t, v in rep.exceed_minus:
            out.row(["exceed_minus", t, v])
        for t in rep.crossings:
            out.row(["crossing", t, 0.0])
        out.close()
        return 0

    if args.command == "motohashi":
        return _cmd_motohashi(args, run_cfg, cfg)

    if args.command == "laplace":
        from .laplace import atkinson_expansion, kober_main, laplace_moment_grid

        svals = [float(s) for s in args.s_grid.split(",") if s.strip()]
        results = laplace_moment_grid(args.k, svals, cfg)
        cols = ["s", "L_k", "err_bound", "panels"]
        if args.main_term:
            cols += ["main_term", "difference"]
        rows = []
        for s, r in zip(svals, results):
            rows.append([s, r.value, r.err_bound, r.panels])
            if args.main_term:
                mt = kober_main(s / 2.0) if args.k == 1 else atkinson_expansion(s)
                rows[-1] += [mt, r.value - mt]
        out = _open_out(args, run_cfg, cols)
        for row in rows:
            out.row(row)
        out.close()
        return 0

    if args.command == "explore":
        return _cmd_explore(args, run_cfg, cfg)

    raise AssertionError("unhandled command %r" % (args.command,))


def _cmd_moment(args, run_cfg, cfg) -> int:
    import fcntl

    from .checkpoint import extend_checkpoint
    from .moments import default_p4, main_term, p1_exact

    path = run_cfg.checkpoint_path
    lock_path = path + ".lock"
    with open(lock_path, "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # A holder that ended unlinked the file it locked, so the path
            # may now name a file whose lock this process does not hold.
            held = os.path.samestat(os.fstat(lock.fileno()), os.stat(lock_path))
        except OSError:
            held = False
        if not held:
            print("checkpoint %s is locked by another process" % path, file=sys.stderr)
            return EXIT_DATA
        try:
            notes, row = [], [0.0, 0.0, 0.0, 0.0, 0.0]
            if args.T != 0:
                cp, (value, err) = extend_checkpoint(path, args.k, args.T, cfg, resume=args.resume)
                poly = p1_exact() if args.k == 1 else default_p4()
                mt = main_term(args.k, args.T, poly)
                notes.append("checkpoint=%s rows=%d digest=%s" % (path, len(cp.grid), cp.config_digest))
                if cp.resume is not None:
                    notes.append("resume: seed T=%r, verified T=%r, %d panels integrated at or below it"
                                 % (cp.resume.seed_t, cp.resume.verified_t, cp.resume.panels))
                notes.append("P%d provenance: %s" % (args.k * args.k, ",".join(poly.provenance)))
                row = [args.T, value, mt, value - mt, err]
            out = _open_out(args, run_cfg, ["T", "integral", "main_term", "E", "err_bound"])
            for note in notes:
                out.comment(note)
            out.row(row)
            out.close()
            return 0
        finally:
            os.unlink(lock_path)  # while the lock is held; closing the file releases it


def _cmd_motohashi(args, run_cfg, cfg) -> int:
    from .moments import smoothed_fourth
    from .spectral import load_spectral_dataset, motohashi_spectral_sum

    direct = smoothed_fourth(args.T, args.delta, cfg)
    cols = ["T", "delta", "direct", "direct_err", "spectral", "difference",
            "truncation_bound", "terms_used"]
    if args.no_spectral:
        out = _open_out(args, run_cfg, cols)
        out.comment("warning: no spectral dataset; direct side only")
        out.row([args.T, args.delta, direct.value, direct.err_bound, "", "", "", ""])
        out.close()
        return 0
    ds = load_spectral_dataset(args.spectral)
    spec = motohashi_spectral_sum(args.T, args.delta, ds, cfg=cfg)
    out = _open_out(args, run_cfg, cols)
    out.comment("spectral source checksum=%s" % ds.checksum)
    out.comment("delta admissible (A=1 window): %s" % spec.metadata["delta_admissible_A1"])
    out.row([args.T, args.delta, direct.value, direct.err_bound, spec.value,
             direct.value - spec.value, spec.truncation_bound, spec.terms_used])
    out.close()
    return 0


def _cmd_explore(args, run_cfg, cfg) -> int:
    if args.table == "meansq-e2":
        from .moments import mean_square_e2

        ts = sorted(float(x) for x in (args.T_list or "250,500,1000,2000").split(","))
        _, table = mean_square_e2(max(ts), cfg, snapshots=ts)
        out = _open_out(args, run_cfg, ["T", "int_E2_sq", "ratio_T2"])
        for t, v, ratio in table:
            out.row([t, v, ratio])
        out.close()
        return 0
    if args.table == "e2-gaps":
        from .scans import e2_zero_gap_table

        rows = e2_zero_gap_table(args.t0, args.t1, cfg)
        out = _open_out(args, run_cfg, ["n", "u_n", "gap", "log_gap_over_log_u"])
        for row in rows:
            out.row(list(row))
        out.close()
        return 0
    raise AssertionError


if __name__ == "__main__":
    sys.exit(main())
