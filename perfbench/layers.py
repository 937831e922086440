"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of zetalab's modules with
wrappers that record a span (name, duration, time covered by child spans)
and work counts, and ``Tracer.remove`` puts the originals back.  Spans are
aggregated in memory; a layer's self time is its span time minus the time
covered by its direct child spans.  Time spent in the tracer's own count
hooks is excluded from every span.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Expected effect of each per-layer metric: the workloads on which a change
# that moves it should move wall_s, and those on which it should not.
METRIC_MAP = {
    "zkernel.rs.*": ("e2_frontier (most), functionals_5k", "e1_scan (little)"),
    "zkernel.em.*": ("e1_scan, functionals_5k (also peak_rss_mb)", "e2_frontier"),
    "zkernel.calls, zkernel.pts_per_call": ("e1_scan (per-call overhead)", "e2_frontier"),
    "zkernel.dup_ratio": ("functionals_5k", "e1_scan"),
    "zkernel.share": ("all three; whether a run is bound by the kernel", "n/a"),
    "quadrature.batch.*, quadrature.refine_ratio": ("e2_frontier", "functionals_5k, e1_scan"),
    "quadrature.mesh.self_s": ("e2_frontier", "e1_scan"),
    "quadrature.query.*": ("e1_scan", "e2_frontier"),
    "moments.*": ("functionals_5k (mean square also moves peak_rss_mb)", "e1_scan"),
    "laplace.grid.*": ("functionals_5k", "e2_frontier, e1_scan"),
    "scans.*": ("e1_scan", "functionals_5k"),
    "checkpoint.*": ("e2_frontier", "functionals_5k, e1_scan"),
    "spectral.*": ("none expected (a few ms); recorded so that a regression shows", "n/a"),
    "cli.moment.*": ("e2_frontier", "n/a"),
    "zkernel.band.*": ("kernel sweep, independent of the workload", "n/a"),
}

# Counts that must repeat exactly between two traced runs of one commit.
WORK_COUNTS = (
    "zkernel.rs.pts",
    "zkernel.em.pts",
    "quadrature.batch.panel_pairs",
    "quadrature.query.calls",
    "checkpoint.bytes_written",
    "scans.crossings",
)

BANDS = (("10-4e2", 10.0, 4e2), ("4e2-1e4", 4e2, 1e4), ("1e4-1e5", 1e4, 1e5), ("1e5-1e6", 1e5, 1e6))
SWEEP_POINTS = 512 * 48  # points per timed z_block call: one moment batch
SWEEP_REPEATS = 3        # timed calls per band; the median is reported
ORACLE_POINTS = 16      # points per band checked against mpmath.siegelz
ORACLE_DPS = 25


class Tracer:
    def __init__(self):
        self.stack = []                     # open spans: [name, child seconds]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.t_chunks = []                  # every t passed to z_block
        self.kernel_s = 0.0                 # time in outermost kernel spans
        self.resume_last_t = None
        self._size = 0                      # checkpoint size before an append
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _hook(self, hook, *args):
        start = perf_counter()
        hook(*args)
        if self.stack:
            self.stack[-1][1] += perf_counter() - start

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; name may be a function of (args, kwargs)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if before is not None:
                self._hook(before, args, kwargs)
            frame = [label, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self.stack.pop()
                self.total[label] += dur
                self.self_time[label] += dur - frame[1]
                self.calls[label] += 1
                parent = self.stack[-1] if self.stack else None
                if parent is not None:
                    parent[1] += dur
                if label.startswith("zkernel.") and (parent is None or not parent[0].startswith("zkernel.")):
                    self.kernel_s += dur
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, before=None, after=None):
        """Wrap fn with count hooks only, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- count hooks ------------------------------------------------------

    def _kernel_points(self, branch):
        def hook(args, kwargs):
            t = np.asarray(args[0])
            self.counts["zkernel.%s.pts" % branch] += t.size
            if self.resume_last_t is not None:
                self.counts["checkpoint.resume.recomputed_pts"] += int(np.count_nonzero(t <= self.resume_last_t))

        return hook

    def _z_block_points(self, args, kwargs):
        self.t_chunks.append(np.array(args[0], dtype=float, copy=True).ravel())

    def _in_scan(self):
        return any(frame[0] == "scans.scan" for frame in self.stack)

    # -- install / remove -------------------------------------------------

    def install(self):
        from zetalab import checkpoint, cli, laplace, moments, quadrature, scans, spectral, zkernel

        c = self.counts
        self._patch(zkernel, "z_em_block", self.span("zkernel.em", zkernel.z_em_block, self._kernel_points("em")))
        self._patch(zkernel, "z_rs_block", self.span("zkernel.rs", zkernel.z_rs_block, self._kernel_points("rs")))
        self._patch(zkernel, "z_block", self.span("zkernel.block", zkernel.z_block, self._z_block_points))
        for module in (zkernel, quadrature, moments, laplace):
            self._patch(module, "moment_integrand", self.span("zkernel.integrand", module.moment_integrand))

        batch, acc = quadrature.PanelBatch, quadrature.MomentAccumulator

        def panels_in(args, kwargs):
            c["quadrature.batch.panels_in"] += len(args[1])

        def panel_pairs(args, kwargs):
            c["quadrature.batch.panel_pairs"] += len(args[1])

        def query(args, kwargs):
            if self._in_scan():
                c["scans.queries"] += 1

        self._patch(batch, "run", self.span("quadrature.batch", batch.run, panels_in))
        self._patch(batch, "_panel_pair", self.counted(batch._panel_pair, panel_pairs))
        self._patch(acc, "ensure", self.span("quadrature.mesh", acc.ensure))
        self._patch(acc, "cumulative_to", self.span("quadrature.query", acc.cumulative_to, query))

        for fn in ("error_term", "integral_of_e2", "mean_square_e2", "smoothed_fourth", "integrate_moment"):
            self._patch(moments, fn, self.span("moments." + fn, getattr(moments, fn)))

        def sigmas(args, kwargs):
            c["laplace.grid.sigmas"] += len(args[1])

        self._patch(laplace, "laplace_moment_grid", self.span("laplace.grid", laplace.laplace_moment_grid, sigmas))

        def crossings(args, kwargs, result):
            c["scans.crossings"] += len(result.crossings)

        self._patch(scans, "sign_change_scan", self.span("scans.scan", scans.sign_change_scan, after=crossings))

        read_original = checkpoint.read_checkpoint

        def resume_start(args, kwargs):
            resume = kwargs.get("resume", args[4] if len(args) > 4 else True)
            stored = read_original(args[0], args[1]) if resume else None
            self.resume_last_t = stored.grid[-1][0] if stored is not None else None

        def resume_end(args, kwargs, result):
            self.resume_last_t = None

        def size_before(args, kwargs):
            self._size = os.path.getsize(args[0]) if os.path.exists(args[0]) else 0

        def size_after(args, kwargs, result):
            c["checkpoint.rows_written"] += len(args[2])
            c["checkpoint.bytes_written"] += os.path.getsize(args[0]) - self._size

        self._patch(checkpoint, "extend_checkpoint",
                    self.span("checkpoint.extend", checkpoint.extend_checkpoint, resume_start, resume_end))
        self._patch(checkpoint, "read_checkpoint", self.span("checkpoint.read", read_original))
        self._patch(checkpoint, "_append_rows", self.counted(checkpoint._append_rows, size_before, size_after))

        def terms(args, kwargs, result):
            c["spectral.terms_used"] += result.terms_used

        self._patch(spectral, "motohashi_spectral_sum",
                    self.span("spectral.motohashi", spectral.motohashi_spectral_sum, after=terms))
        self._patch(cli, "main", self.span(lambda args, kwargs: "cli." + args[0][0], cli.main))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        c, tot, own = self.counts, self.total, self.self_time
        m = {}
        pts = 0
        for branch in ("rs", "em"):
            n = c["zkernel.%s.pts" % branch]
            s = tot["zkernel." + branch]
            pts += n
            m["zkernel.%s.pts" % branch] = n
            m["zkernel.%s.s" % branch] = s
            m["zkernel.%s.us_per_pt" % branch] = 1e6 * s / n if n else 0.0
        calls = self.calls["zkernel.block"]
        m["zkernel.calls"] = calls
        m["zkernel.pts_per_call"] = pts / calls if calls else 0.0
        distinct = np.unique(np.concatenate(self.t_chunks)).size if self.t_chunks else 0
        m["zkernel.dup_ratio"] = pts / distinct if distinct else 0.0
        m["zkernel.s"] = self.kernel_s
        m["zkernel.share"] = self.kernel_s / wall_s

        panels = c["quadrature.batch.panels_in"]
        m["quadrature.batch.calls"] = self.calls["quadrature.batch"]
        m["quadrature.batch.panels_in"] = panels
        m["quadrature.batch.panel_pairs"] = c["quadrature.batch.panel_pairs"]
        m["quadrature.refine_ratio"] = c["quadrature.batch.panel_pairs"] / panels if panels else 0.0
        m["quadrature.batch.self_s"] = own["quadrature.batch"]
        m["quadrature.mesh.self_s"] = own["quadrature.mesh"]
        m["quadrature.query.calls"] = self.calls["quadrature.query"]
        m["quadrature.query.s"] = tot["quadrature.query"]

        for fn in ("error_term", "integral_of_e2", "mean_square_e2", "smoothed_fourth"):
            m["moments.%s.s" % fn] = tot["moments." + fn]
        m["moments.mean_square_e2.self_s"] = own["moments.mean_square_e2"]

        m["laplace.grid.s"] = tot["laplace.grid"]
        m["laplace.grid.self_s"] = own["laplace.grid"]
        m["laplace.grid.sigmas"] = c["laplace.grid.sigmas"]

        crossings = c["scans.crossings"]
        m["scans.scan.s"] = tot["scans.scan"]
        m["scans.scan.self_s"] = own["scans.scan"]
        m["scans.crossings"] = crossings
        m["scans.queries_per_crossing"] = c["scans.queries"] / crossings if crossings else 0.0

        m["checkpoint.extend.s"] = tot["checkpoint.extend"]
        m["checkpoint.read.s"] = tot["checkpoint.read"]
        m["checkpoint.rows_written"] = c["checkpoint.rows_written"]
        m["checkpoint.bytes_written"] = c["checkpoint.bytes_written"]
        m["checkpoint.resume.recomputed_pts"] = c["checkpoint.resume.recomputed_pts"]

        m["spectral.motohashi.s"] = tot["spectral.motohashi"]
        m["spectral.terms_used"] = c["spectral.terms_used"]

        m["cli.moment.s"] = tot["cli.moment"]
        m["cli.moment.self_s"] = own["cli.moment"]
        return m


def band_sweep(seed: int) -> tuple:
    """(metrics, violations) of z_block on seeded samples in each t-band.

    Samples are log-uniform in each band.  Speed is the median of
    SWEEP_REPEATS calls on SWEEP_POINTS points; the error model is checked
    against mpmath.siegelz on ORACLE_POINTS further points.
    Every violation is returned as (band, t, |Z - siegelz|, reported err).
    """
    import mpmath
    from zetalab import zkernel

    rng = np.random.default_rng(seed)

    def sample(lo, hi, n):
        # log-uniform, so that every part of a band is sampled in proportion
        return np.exp(rng.uniform(np.log(lo), np.log(hi), n))

    metrics, violations = {}, []
    for band, lo, hi in BANDS:
        t = sample(lo, hi, SWEEP_POINTS)
        times = []
        for _ in range(SWEEP_REPEATS):
            start = perf_counter()
            zkernel.z_block(t)
            times.append(perf_counter() - start)
        metrics["zkernel.band.%s.us_per_pt" % band] = 1e6 * statistics.median(times) / SWEEP_POINTS

        ts = sample(lo, hi, ORACLE_POINTS)
        z, err = zkernel.z_block(ts)
        with mpmath.workdps(ORACLE_DPS):
            exact = [float(mpmath.siegelz(x)) for x in ts]
        bad = 0
        for x, zv, ev, ref in zip(ts, z, err, exact):
            if abs(zv - ref) > ev:
                bad += 1
                violations.append((band, float(x), abs(zv - ref), float(ev)))
        metrics["zkernel.band.%s.bound_violations" % band] = bad
    return metrics, violations
