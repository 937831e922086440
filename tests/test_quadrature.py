"""Batched cumulative queries of the moment accumulator."""

import numpy as np
import pytest

from zetalab.errors import DomainError
from zetalab.quadrature import PanelBatch, get_accumulator, gl_integration_matrix, gl_nodes
from zetalab.zkernel import moment_integrand


def scalar_query(acc, t, cfg):
    """int_0^t as one prefix sum plus one partial panel integrated alone."""
    i = acc.n_panels_to(t)
    out = [float(p[i]) for p in acc.prefix()]
    left = acc.bounds[i]
    if t > left:
        batch = PanelBatch(lambda u: moment_integrand(u, acc.k, cfg.t_switch, cfg.rs_terms), cfg)
        out = [o + float(d[0]) for o, d in zip(out, batch.run([left], [t]))]
    return tuple(out)


class TestCumulativeAt:
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_scalar_queries_bit_for_bit(self, k, cfg):
        acc = get_accumulator(k, cfg)
        acc.ensure(3000.0)
        rng = np.random.default_rng(7 + k)
        ts = np.concatenate([
            rng.uniform(0.0, 3000.0, 150),   # EM and RS branches, inside panels
            np.array(acc.bounds[1::211]),     # on mesh boundaries
            [0.0, 399.9, 400.1],
        ])
        rng.shuffle(ts)
        batched = acc.cumulative_at(ts)
        for j, t in enumerate(ts.tolist()):
            got = tuple(q[j] for q in batched)
            assert got == acc.cumulative_to(t) == scalar_query(acc, t, cfg), t

    def test_zero_empty_and_negative(self, cfg):
        acc = get_accumulator(1, cfg)
        v, vu, e, eu = acc.cumulative_at([0.0, 0.0])
        assert v.tolist() == vu.tolist() == e.tolist() == eu.tolist() == [0.0, 0.0]
        assert all(q.size == 0 for q in acc.cumulative_at([]))
        with pytest.raises(DomainError):
            acc.cumulative_at([1.0, -1e-9])

    def test_extends_the_mesh_to_the_largest_t(self, cfg):
        acc = get_accumulator(1, cfg)
        t = acc.bounds[-1] + 7.25
        v = acc.cumulative_at([10.0, t])[0]
        assert acc.bounds[-1] >= t
        assert v[1] > v[0] > 0.0


class TestIntegrationMatrix:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_integrates_monomials_to_each_node(self, n):
        x, _ = gl_nodes(n)
        s = gl_integration_matrix(n)
        for d in range(n):
            exact = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            assert np.max(np.abs(s @ x**d - exact)) <= 1e-14, d
