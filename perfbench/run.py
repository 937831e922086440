#!/usr/bin/env python3
"""Run one zetalab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload e2_frontier --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; zetalab is imported from ``src/``.  The
workload body is repeated until ``--seconds`` have passed, each repetition
starting from the state of a fresh process, and every output is checked
outside the timed body.  With ``--trace 0`` the end-to-end metrics are
printed, their times at a fixed reference host speed (``hostspeed.py``);
with ``--trace 1`` untraced and traced repetitions alternate, and the
per-layer metrics are printed.  The last line of standard
output is one JSON object; the lines before it name every failure and record
the host and the code measured.
"""

import os

# Single-threaded BLAS, fixed before numpy is imported.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("e2_frontier", "functionals_5k", "e1_scan")
SETUP_PROBES = 10
MIN_TRACED = 2

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def setup():
    """Everything the first timed call needs: imports, lazy tables, dataset, kernel."""
    import numpy as np
    from zetalab import constants, zkernel
    from zetalab.precision import DEFAULT_CTX

    constants.constants_for(DEFAULT_CTX)
    zkernel.z_block(np.array([50.0, 1000.0]))   # both branches, Bernoulli table
    return workloads.Harness(WORKDIR)


def probe_setup_s() -> tuple:
    """Time from starting a fresh process until it is ready for the first
    timed call: (measured, at the reference speed of the process's samples)."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--probe-setup"],
                          cwd=str(ROOT), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    word, *numbers = line.split()
    if code != 0 or word != "ready" or len(numbers) != 2:
        raise SystemExit("set-up probe failed with exit code %d" % code)
    overhead_s, factor = map(float, numbers)
    return elapsed, (elapsed - overhead_s) * factor


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, variant: int) -> dict:
    import mpmath
    import numpy as np
    import scipy
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    from zetalab.config import QuadConfig

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_cpu_baseline": list(__cpu_baseline__),
        "numpy_cpu_dispatch": list(__cpu_dispatch__),
        "numpy_cpu_features": [k for k, v in __cpu_features__.items() if v],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": BLAS_THREADS,
        "quad_digest": QuadConfig().digest(),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "seed": seed,
        "variant": variant,
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def per_layer(layer_runs, seed) -> dict:
    """Medians over the traced repetitions, whose work counts must repeat exactly."""
    first = layer_runs[0]
    for other in layer_runs[1:]:
        diff = {k: (first[k], other[k]) for k in layers.WORK_COUNTS if first[k] != other[k]}
        if diff:
            raise SystemExit("determinism check failed, work counts differ between traced runs: %r" % diff)
    values = {name: statistics.median(run[name] for run in layer_runs) for name in first}
    sweep, violations = layers.band_sweep(seed)
    for band, t, diff, err in violations:
        print("# kernel bound violation in band %s: t=%r |Z - siegelz|=%.3g > err=%.3g" % (band, t, diff, err))
    values.update(sweep)
    return values


def run(args) -> dict:
    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    s = setup()
    variant = workloads.variant_of(args.seed)
    inp = workloads.make_inputs(args.workload, variant)
    reference = checks.load_reference()
    ref = reference["workloads"][args.workload][str(variant)]
    if json.loads(json.dumps(inp)) != ref["inputs"]:
        raise SystemExit("reference.json was recorded for other inputs of %s variant %d"
                         % (args.workload, variant))
    extra = checks.oracles(reference, ROOT)
    # The other variants' references are not needed: free them before the
    # repetitions, so that they do not count in peak_rss_mb.
    del reference
    gc.collect()
    print("# provenance " + json.dumps(provenance(args.seed, variant)))
    print("# inputs " + json.dumps(inp))

    attempted, failures = 0, []
    walls, raw_walls, traced_walls, layer_runs, probes = [], [], [], [], []
    start = perf_counter()

    def probe_until(count):
        # Set-up probes are spread over the run, between repetitions, so
        # that they meet the same host speed as the repetitions.
        while not args.trace and len(probes) < count:
            probes.append(probe_setup_s())

    try:
        while True:
            probe_until(max(1, math.ceil(SETUP_PROBES * (perf_counter() - start) / args.seconds)))
            # With tracing, untraced and traced repetitions alternate.
            tracer = layers.Tracer() if args.trace and len(walls) > len(traced_walls) else None
            sampler = None if args.trace else hostspeed.Sampler()
            s.reset()
            gc.collect()
            if tracer is not None:
                tracer.install()
            try:
                t0 = perf_counter()
                with sampler or contextlib.nullcontext():
                    workloads.body(args.workload, s, inp)
                wall = perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.remove()
            if tracer is None:
                raw_walls.append(wall)
                walls.append(wall if sampler is None else sampler.scaled(wall))
            else:
                traced_walls.append(wall)
                layer_runs.append(tracer.metrics(wall))
            workloads.after_body(args.workload, s)
            for op, error in checks.check_iteration(s, ref["outputs"], extra):
                attempted += 1
                if error is not None:
                    failures.append((op, error))
            if perf_counter() - start >= args.seconds and len(layer_runs) >= (MIN_TRACED if args.trace else 0):
                break
        probe_until(SETUP_PROBES)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for op, error in failures:
        print("# FAILED %s: %s" % (op, error))
    print("# ops_failed_ratio = %d/%d = %.6g" % (len(failures), attempted, len(failures) / attempted))

    wall_s = statistics.median(walls)
    if args.trace:
        values = per_layer(layer_runs, args.seed)
        values["trace.overhead_s"] = statistics.median(t - u for u, t in zip(walls, traced_walls))
        print("# traced wall_s runs: %s; untraced: %s" % (json.dumps(traced_walls), json.dumps(walls)))
        print("# metric map " + json.dumps(layers.METRIC_MAP))
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(scaled for _, scaled in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print("# wall_s runs at the reference speed: " + json.dumps(walls))
        print("# wall_s runs as measured: " + json.dumps(raw_walls))
        print("# setup_s probes as measured: " + json.dumps([raw for raw, _ in probes]))
    units = _units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print("# %s = %.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (ROOT / "src" / "zetalab").is_dir():
        raise SystemExit("no zetalab sources under %s; run from the root of a checkout" % (ROOT / "src"))
    if args.probe_setup:
        with hostspeed.Sampler() as sampler:
            setup()
        print("ready %r %r" % (sampler.overhead_s, sampler.factor()), flush=True)
        return
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
