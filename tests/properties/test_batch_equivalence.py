"""Property tests: batched kernels are equivalent to their scalar solvers.

The batched Bard-Schweitzer (:func:`repro.queueing.solve_batch`) must be
bitwise identical to scalar :func:`repro.queueing.bard_schweitzer` on
*any* same-shape batch -- single-point batches and zero-service (ideal)
stations included -- and the symmetric-manifold batch must be bitwise
identical to its scalar entry point regardless of batch composition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import MMSModel, solve_points
from repro.params import paper_defaults
from repro.queueing import (
    ClosedNetwork,
    bard_schweitzer,
    solve_batch,
    solve_symmetric,
    solve_symmetric_batch,
)

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def network_batches(draw):
    """A batch of 1..5 same-shape networks with varied numbers, including
    zero-service stations and empty classes."""
    c = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=5))
    b = draw(st.integers(min_value=1, max_value=5))
    nets = []
    for _ in range(b):
        visits = np.array(
            draw(
                st.lists(
                    st.lists(
                        st.one_of(
                            st.just(0.0),
                            st.floats(min_value=0.05, max_value=3.0, **finite),
                        ),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=c,
                    max_size=c,
                )
            )
        )
        # every class must visit something
        for i in range(c):
            if not np.any(visits[i] > 0):
                visits[i, 0] = 1.0
        service = np.array(
            draw(
                st.lists(
                    st.one_of(
                        st.just(0.0),
                        st.floats(min_value=0.1, max_value=20.0, **finite),
                    ),
                    min_size=m,
                    max_size=m,
                )
            )
        )
        pops = np.array(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=6), min_size=c, max_size=c
                )
            )
        )
        nets.append(
            ClosedNetwork(visits=visits, service=service, populations=pops)
        )
    return nets


class TestMultiClassEquivalence:
    @given(nets=network_batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar_pointwise(self, nets):
        batch = solve_batch(nets)
        for net, got in zip(nets, batch):
            ref = bard_schweitzer(net)
            assert np.array_equal(got.queue_length, ref.queue_length)
            assert np.array_equal(got.throughput, ref.throughput)
            assert np.array_equal(got.waiting, ref.waiting)
            assert got.converged == ref.converged
            assert got.residual == ref.residual

    @given(nets=network_batches())
    @settings(max_examples=30, deadline=None)
    def test_batch_results_independent_of_batch_composition(self, nets):
        """Solving a point alone equals solving it inside any batch."""
        whole = solve_batch(nets)
        for net, got in zip(nets, whole):
            (alone,) = solve_batch([net])
            assert np.array_equal(got.queue_length, alone.queue_length)
            assert got.iterations == alone.iterations


@st.composite
def symmetric_batches(draw):
    m = draw(st.integers(min_value=2, max_value=6))
    b = draw(st.integers(min_value=1, max_value=6))
    types = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=m, max_size=m
            )
        )
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
    return visits, service, types, pops


class TestSymmetricBitwise:
    @given(batch=symmetric_batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_bitwise_equals_scalar(self, batch):
        visits, service, types, pops = batch
        sols = solve_symmetric_batch(visits, service, types, pops)
        for v, s, n, got in zip(visits, service, pops, sols):
            ref = solve_symmetric(v, s, types, int(n))
            assert got.throughput == ref.throughput
            assert np.array_equal(got.waiting, ref.waiting)
            assert np.array_equal(got.queue_length, ref.queue_length)
            assert np.array_equal(got.total_queue, ref.total_queue)
            assert got.iterations == ref.iterations
            assert got.residual == ref.residual


class TestModelLevelEquivalence:
    @given(
        overs=st.lists(
            st.fixed_dictionaries(
                {
                    "num_threads": st.integers(min_value=1, max_value=10),
                    "p_remote": st.floats(min_value=0.0, max_value=0.8, **finite),
                    "runlength": st.floats(min_value=2.0, max_value=30.0, **finite),
                    "pattern": st.sampled_from(["geometric", "uniform"]),
                }
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_solve_points_bitwise_equals_scalar_solve(self, overs):
        points = [paper_defaults(k=2, **o) for o in overs]
        perfs, _telemetry = solve_points(points)
        for params, got in zip(points, perfs):
            ref = MMSModel(params).solve()
            assert got.summary() == ref.summary()
            assert got.iterations == ref.iterations
            assert got.residual == ref.residual
