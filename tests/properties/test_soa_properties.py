"""Property tests for the structure-of-arrays kernel layer.

Two invariants the kernel refactor promised, checked on arbitrary
batches:

* **pack/unpack round trip** -- ``SymmetricSoA.pack`` /
  ``MulticlassSoA.from_networks`` followed by ``point(i)`` returns the
  input arrays bitwise (including the Seidmann multi-server split being
  the exact ``s/n`` + ``s(n-1)/n`` decomposition);
* **batch invariance at the kernel seam** -- permuting a batch permutes
  the fixed-point outputs bitwise, and solving any slot alone is bitwise
  equal to solving it inside the batch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.kernels import MulticlassSoA, SymmetricSoA, reference
from repro.queueing.network import ClosedNetwork

finite = dict(allow_nan=False, allow_infinity=False)

TOL = 1e-12
MAX_ITER = 100_000


@st.composite
def symmetric_inputs(draw, with_servers=True):
    """Raw (visits, service, types, pops, servers) for SymmetricSoA.pack."""
    m = draw(st.integers(min_value=2, max_value=6))
    b = draw(st.integers(min_value=1, max_value=6))
    types = np.array(
        draw(st.lists(st.integers(min_value=0, max_value=2), min_size=m, max_size=m))
    )
    visits = np.array(
        [
            [1.0]
            + draw(
                st.lists(
                    st.one_of(
                        st.just(0.0),
                        st.floats(min_value=0.05, max_value=2.0, **finite),
                    ),
                    min_size=m - 1,
                    max_size=m - 1,
                )
            )
            for _ in range(b)
        ]
    )
    service = np.array(
        draw(
            st.lists(
                st.lists(
                    st.one_of(
                        st.just(0.0),
                        st.floats(min_value=0.1, max_value=15.0, **finite),
                    ),
                    min_size=m,
                    max_size=m,
                ),
                min_size=b,
                max_size=b,
            )
        )
    )
    pops = np.array(
        draw(st.lists(st.integers(min_value=0, max_value=8), min_size=b, max_size=b))
    )
    servers = None
    if with_servers and draw(st.booleans()):
        servers = np.array(
            draw(
                st.lists(
                    st.lists(
                        st.integers(min_value=1, max_value=4),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=b,
                    max_size=b,
                )
            ),
            dtype=np.float64,
        )
    return visits, service, types, pops, servers


class TestPackRoundTrip:
    @given(inputs=symmetric_inputs())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_pack_point_bitwise(self, inputs):
        visits, service, types, pops, servers = inputs
        soa = SymmetricSoA.pack(visits, service, types, pops, servers=servers)
        assert soa.batch == len(pops)
        for i in range(soa.batch):
            pt = soa.point(i)
            assert np.array_equal(pt["visits"], visits[i])
            assert np.array_equal(pt["station_type"], types)
            assert int(pt["population"]) == int(pops[i])
            if servers is None:
                assert np.array_equal(pt["service"], service[i])
                assert not pt["extra"].any()
            else:
                # the Seidmann split is the exact s/n + s(n-1)/n pair
                assert np.array_equal(pt["service"], service[i] / servers[i])
                assert np.array_equal(
                    pt["extra"], service[i] * (servers[i] - 1.0) / servers[i]
                )

    @given(inputs=symmetric_inputs(with_servers=False))
    @settings(max_examples=30, deadline=None)
    def test_multiclass_from_networks_point_bitwise(self, inputs):
        visits, service, _types, pops, _ = inputs
        nets = [
            ClosedNetwork(
                visits=v[None, :],
                service=s,
                populations=np.array([int(n)]),
            )
            for v, s, n in zip(visits, service, pops)
        ]
        soa = MulticlassSoA.from_networks(nets)
        assert soa.batch == len(nets)
        for i, net in enumerate(nets):
            pt = soa.point(i)
            sq, extra = net.seidmann_split()
            assert np.array_equal(pt["visits"], net.visits)
            assert np.array_equal(pt["service"], sq)
            assert np.array_equal(pt["extra"], extra)
            assert np.array_equal(pt["queueing"], net.queueing_mask())


def _rows(res):
    return res.q, res.w, res.x, res.iterations, res.residual, res.converged


class TestBatchInvariance:
    @given(inputs=symmetric_inputs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariance(self, inputs, data):
        visits, service, types, pops, servers = inputs
        perm = np.array(data.draw(st.permutations(range(len(pops)))))
        soa = SymmetricSoA.pack(visits, service, types, pops, servers=servers)
        psoa = SymmetricSoA.pack(
            visits[perm],
            service[perm],
            types,
            pops[perm],
            servers=None if servers is None else servers[perm],
        )
        base = reference.symmetric_fixed_point(soa, TOL, MAX_ITER)
        permuted = reference.symmetric_fixed_point(psoa, TOL, MAX_ITER)
        for got, want in zip(_rows(permuted), _rows(base)):
            assert np.array_equal(got, want[perm])

    @given(inputs=symmetric_inputs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_singleton_composition_bitwise(self, inputs, data):
        visits, service, types, pops, servers = inputs
        i = data.draw(st.integers(min_value=0, max_value=len(pops) - 1))
        soa = SymmetricSoA.pack(visits, service, types, pops, servers=servers)
        alone = SymmetricSoA.pack(
            visits[i : i + 1],
            service[i : i + 1],
            types,
            pops[i : i + 1],
            servers=None if servers is None else servers[i : i + 1],
        )
        batch = reference.symmetric_fixed_point(soa, TOL, MAX_ITER)
        single = reference.symmetric_fixed_point(alone, TOL, MAX_ITER)
        for got, want in zip(_rows(single), _rows(batch)):
            assert np.array_equal(got[0], want[i])
