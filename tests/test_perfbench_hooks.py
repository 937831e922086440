"""The benchmark's tracer and harness still find every zetalab name they use.

perfbench/ wraps zetalab functions by attribute name, and only its traced
runs do so; tier-1 never runs them.  A renamed or removed function would
otherwise break the traced benchmark alone.  The tracer's kernel counts also
show that the functionals over [0, T] evaluate each node of the mesh once.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_removes_and_the_harness_builds(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from zetalab import spectral

    original = spectral.motohashi_spectral_sum
    tracer = layers.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not old for owner, attr, old in patched)
        harness = workloads.Harness(tmp_path / "work")
        assert len(harness.dataset) == 10
        spectral.motohashi_spectral_sum(200.0, 20.0, harness.dataset)
        assert tracer.counts["spectral.terms_used"] == 10
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is old for owner, attr, old in patched)
    assert spectral.motohashi_spectral_sum is original


def test_traced_resume_counts_only_the_recomputed_span(monkeypatch, tmp_path, cfg):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from zetalab import checkpoint, quadrature

    path = str(tmp_path / "m.ckpt")
    tracer = layers.Tracer()
    tracer.install()
    try:
        quadrature.clear_accumulators()
        first, _ = checkpoint.extend_checkpoint(path, 1, 1000.0, cfg)
        points_to_first = tracer.counts["zkernel.em.pts"] + tracer.counts["zkernel.rs.pts"]
        quadrature.clear_accumulators()  # as a new process finds them
        resumed, _ = checkpoint.extend_checkpoint(path, 1, 1100.0, cfg, resume=True)
    finally:
        tracer.remove()
        quadrature.clear_accumulators()
    recomputed = tracer.counts["checkpoint.resume.recomputed_pts"]
    assert 0 < recomputed < points_to_first
    assert tracer.counts["checkpoint.rows_written"] == len(resumed.grid) > len(first.grid)


def test_every_functional_over_0_t_evaluates_each_node_once(monkeypatch, cfg):
    # error_term, the mean square and both Laplace grids integrate on the
    # same mesh from 0: the tracer sees each of its nodes evaluated once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from zetalab import laplace, moments, quadrature

    t, sigmas = 1500.0, [0.02, 0.03]  # truncations at 937 to 1735
    tracer = layers.Tracer()
    tracer.install()
    try:
        quadrature.clear_accumulators()
        moments.error_term(1, t, cfg)
        moments.error_term(2, t, cfg)
        moments.mean_square_e2(t, cfg, snapshots=[500.0, 1000.0])
        laplace.laplace_moment_grid(1, sigmas, cfg)
        laplace.laplace_moment_grid(2, sigmas, cfg)
        m = tracer.metrics(1.0)
        panels = quadrature.get_accumulator(1, cfg).n_panels_to(t)
    finally:
        tracer.remove()
        quadrature.clear_accumulators()
    assert m["zkernel.rs.pts"] + m["zkernel.em.pts"] >= (2 * cfg.nodes + 1) * panels
    assert m["zkernel.dup_ratio"] <= 1.1
