"""Unit tests for remote-access patterns."""

import numpy as np
import pytest

from repro.topology import Mesh2D, Torus2D
from repro.workload import (
    AccessPattern,
    GeometricPattern,
    HotspotPattern,
    UniformPattern,
    make_pattern,
)


@pytest.fixture
def t4():
    return Torus2D(4)


class TestGeometricPattern:
    def test_module_probabilities_normalized(self, t4):
        q = GeometricPattern(0.5).module_probabilities(t4, 0)
        assert q.sum() == pytest.approx(1.0)

    def test_no_self_access(self, t4):
        for src in range(t4.num_nodes):
            q = GeometricPattern(0.5).module_probabilities(t4, src)
            assert q[src] == 0.0

    def test_equal_within_distance_class(self, t4):
        q = GeometricPattern(0.5).module_probabilities(t4, 0)
        for h in range(1, t4.max_distance + 1):
            vals = q[t4.nodes_at_distance(0, h)]
            assert np.allclose(vals, vals[0])

    def test_per_module_value(self, t4):
        """Distance-class mass p^h/a split among count_h modules."""
        pat = GeometricPattern(0.5)
        pmf = pat.distance_pmf(t4)
        q = pat.module_probabilities(t4, 0)
        counts = t4.distance_counts
        for h in range(1, t4.max_distance + 1):
            node = t4.nodes_at_distance(0, h)[0]
            assert q[node] == pytest.approx(pmf[h] / counts[h])

    def test_closer_modules_more_likely(self, t4):
        q = GeometricPattern(0.3).module_probabilities(t4, 0)
        n1 = t4.nodes_at_distance(0, 1)[0]
        n2 = t4.nodes_at_distance(0, 2)[0]
        assert q[n1] > q[n2]

    def test_matrix_matches_rows(self, t4):
        pat = GeometricPattern(0.5)
        mat = pat.module_probability_matrix(t4)
        for src in (0, 5, 15):
            assert np.allclose(mat[src], pat.module_probabilities(t4, src))

    def test_matrix_translation_symmetric(self, t4):
        mat = GeometricPattern(0.5).module_probability_matrix(t4)
        b = 6
        for j in range(t4.num_nodes):
            assert mat[0, j] == pytest.approx(
                mat[t4.translate(0, b), t4.translate(j, b)]
            )

    def test_davg(self, t4):
        assert GeometricPattern(0.5).d_avg(t4) == pytest.approx(1.7333333)

    def test_equality_and_hash(self):
        assert GeometricPattern(0.5) == GeometricPattern(0.5)
        assert GeometricPattern(0.5) != GeometricPattern(0.4)
        assert hash(GeometricPattern(0.5)) == hash(GeometricPattern(0.5))

    def test_invalid_psw(self):
        with pytest.raises(ValueError):
            GeometricPattern(0.0)


class TestUniformPattern:
    def test_equal_probabilities(self, t4):
        q = UniformPattern().module_probabilities(t4, 0)
        remote = np.delete(q, 0)
        assert np.allclose(remote, 1.0 / 15)

    def test_davg_4x4(self, t4):
        # sum(h * count_h) / 15 = (4 + 12 + 12 + 4) / 15
        assert UniformPattern().d_avg(t4) == pytest.approx(32 / 15)

    def test_equality(self):
        assert UniformPattern() == UniformPattern()
        assert UniformPattern() != GeometricPattern(0.5)


class TestFactory:
    def test_geometric(self):
        pat = make_pattern("geometric", 0.3)
        assert isinstance(pat, GeometricPattern)
        assert pat.p_sw == 0.3

    def test_uniform(self):
        assert isinstance(make_pattern("uniform"), UniformPattern)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_pattern("zipf")


def _loop_matrix(pattern, topology):
    """The per-source construction the vectorized base method replaced,
    kept as the bitwise reference for it."""
    d = topology.distance_matrix
    p = topology.num_nodes
    if p < 2:
        raise ValueError("machine has no remote modules")
    hmax = int(d.max())
    w = np.asarray(
        pattern.class_weights(np.arange(hmax + 1, dtype=np.float64)),
        dtype=np.float64,
    )
    w[0] = 0.0
    q = np.zeros((p, p))
    for src in range(p):
        counts = np.bincount(d[src], minlength=hmax + 1)
        class_mass = np.where(counts > 0, w, 0.0)
        total = class_mass.sum()
        if total <= 0:
            raise ValueError("degenerate pattern: no reachable class")
        per_module = np.where(
            counts > 0, class_mass / total / np.maximum(counts, 1), 0.0
        )
        q[src] = per_module[d[src]]
        q[src, src] = 0.0
    return q


class _FarOnly(AccessPattern):
    """Weight only on the machine's largest distance: a mesh's interior
    sources reach no weighted class, so the pattern is degenerate there."""

    def __init__(self, hmax):
        self.hmax = hmax

    def class_weights(self, h):
        return (h == self.hmax).astype(np.float64)


MACHINES = [Torus2D(k) for k in range(2, 9)] + [Mesh2D(k) for k in range(2, 9)]


def _patterns(topology):
    last = topology.num_nodes - 1
    return [GeometricPattern(p_sw) for p_sw in (0.1, 0.5, 0.9, 1.0)] + [
        UniformPattern(),
        HotspotPattern(hot_node=0, hot_fraction=0.3),
        HotspotPattern(hot_node=last, hot_fraction=0.6, base=GeometricPattern(0.9)),
    ]


class TestMatrixParity:
    """The vectorized matrix is bitwise the per-source loop's."""

    @pytest.mark.parametrize("topology", MACHINES, ids=repr)
    def test_base_method_equals_loop(self, topology):
        for pattern in _patterns(topology):
            got = AccessPattern.module_probability_matrix(pattern, topology)
            assert np.array_equal(got, _loop_matrix(pattern, topology)), pattern

    @pytest.mark.parametrize("topology", MACHINES, ids=repr)
    def test_public_matrix_equals_loop_based(self, topology, monkeypatch):
        """Every pattern's public matrix (hotspot scaling included) is
        unchanged when the base construction is the old loop."""
        got = [p.module_probability_matrix(topology) for p in _patterns(topology)]
        monkeypatch.setattr(
            AccessPattern, "module_probability_matrix", _loop_matrix
        )
        want = [p.module_probability_matrix(topology) for p in _patterns(topology)]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("topology", [Torus2D(1), Mesh2D(1)], ids=repr)
    def test_no_remote_modules_error(self, topology):
        for build in (AccessPattern.module_probability_matrix, _loop_matrix):
            with pytest.raises(ValueError, match="no remote modules"):
                build(GeometricPattern(0.5), topology)

    def test_degenerate_pattern_error(self):
        mesh = Mesh2D(3)
        pattern = _FarOnly(int(mesh.distance_matrix.max()))
        for build in (AccessPattern.module_probability_matrix, _loop_matrix):
            with pytest.raises(ValueError, match="degenerate pattern"):
                build(pattern, mesh)
