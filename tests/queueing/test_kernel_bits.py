"""Bit-exact pins of the fixed-point kernels' raw outputs.

The goldens compare records at a relative tolerance, so they cannot tell a
kernel rewrite that keeps every bit from one that moves the last ulp.  This
suite can: each case hashes the raw bytes of ``q``/``w``/``x``/
``iterations``/``residual`` plus the active-set ``trajectory`` for fixed
inputs, and pins the sha256.  Any change to the evaluation order of the
iteration (a reduction regrouped, an elementwise expression reassociated)
changes a digest.

Regenerate a digest only together with a ``SOLVER_VERSION`` bump:
``PYTHONPATH=src python tests/queueing/test_kernel_bits.py`` prints the
current table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.model import MMSModel
from repro.params import paper_defaults
from repro.queueing import ClosedNetwork
from repro.queueing.kernels import MulticlassSoA, SymmetricSoA, reference
from repro.queueing.network import StationKind
from repro.scenarios.hier import HierParams, build_network

TOL = 1e-12
MAX_ITER = 100_000


def _symmetric(params_list, empty=()) -> SymmetricSoA:
    """Pack torus points; slots listed in ``empty`` get population 0."""
    arrays = [MMSModel(p).station_arrays() for p in params_list]
    pops = np.array([p.workload.num_threads for p in params_list])
    pops[list(empty)] = 0
    return SymmetricSoA.pack(
        visits=np.stack([a[0] for a in arrays]),
        service=np.stack([a[1] for a in arrays]),
        station_type=arrays[0][2],
        populations=pops,
        servers=np.stack([a[3] for a in arrays]),
    )


def _torus_lattice(k: int, **extra) -> list:
    return [
        paper_defaults(k=k, num_threads=n, p_remote=p, **extra)
        for n in (1, 3, 8, 16)
        for p in (0.05, 0.3, 0.8)
    ]


def _hotspot(k: int, batch: int) -> MulticlassSoA:
    points = [
        paper_defaults(
            k=k,
            pattern="hotspot",
            num_threads=2 + 3 * i,
            p_remote=0.1 + 0.1 * i,
            hot_node=i % (k * k),
        )
        for i in range(batch)
    ]
    return MulticlassSoA.from_networks(
        [MMSModel(p).build_network() for p in points]
    )


def _hier(points) -> MulticlassSoA:
    return MulticlassSoA.from_networks([build_network(p) for p in points])


def _random_networks(seed: int, batch: int, mixed: bool = True) -> MulticlassSoA:
    """Same-shape random networks with zero-service and multi-server
    stations; ``mixed`` adds a delay station and allows empty classes."""
    rng = np.random.default_rng(seed)
    c, m = 3, 6
    kinds = tuple(
        StationKind.DELAY if mixed and j == m - 1 else StationKind.QUEUEING
        for j in range(m)
    )
    servers = (1, 2, 1, 3, 1, 1)
    nets = []
    for _ in range(batch):
        visits = rng.uniform(0.05, 3.0, (c, m)) * (rng.random((c, m)) > 0.25)
        visits[:, 0] = np.maximum(visits[:, 0], 0.5)
        service = rng.uniform(0.1, 20.0, m) * (rng.random(m) > 0.2)
        pops = rng.integers(0 if mixed else 1, 7, c)
        nets.append(
            ClosedNetwork(
                visits=visits,
                service=service,
                populations=pops,
                kinds=kinds,
                servers=servers,
            )
        )
    return MulticlassSoA.from_networks(nets)


#: case name -> (kernel entry point name, SoA factory, max_iter)
CASES = {
    "sym_k2_b12": (
        "symmetric_fixed_point",
        lambda: _symmetric(_torus_lattice(2)),
        MAX_ITER,
    ),
    "sym_k3_b12_ports2_empty": (
        "symmetric_fixed_point",
        lambda: _symmetric(_torus_lattice(3, memory_ports=2), empty=(4,)),
        MAX_ITER,
    ),
    "sym_k4_b1": (
        "symmetric_fixed_point",
        lambda: _symmetric([paper_defaults(k=4, num_threads=8, p_remote=0.2)]),
        MAX_ITER,
    ),
    "sym_k4_b12_empty": (
        "symmetric_fixed_point",
        lambda: _symmetric(_torus_lattice(4), empty=(0, 7)),
        MAX_ITER,
    ),
    "sym_k4_b1_ports2": (
        "symmetric_fixed_point",
        lambda: _symmetric(
            [paper_defaults(k=4, num_threads=6, p_remote=0.5, memory_ports=2)]
        ),
        MAX_ITER,
    ),
    "sym_k3_b12_cap0": (
        "symmetric_fixed_point",
        lambda: _symmetric(_torus_lattice(3), empty=(2,)),
        0,
    ),
    "sym_k3_b12_cap3": (
        "symmetric_fixed_point",
        lambda: _symmetric(_torus_lattice(3), empty=(2,)),
        3,
    ),
    "sym_k3_b12_cap7": (
        "symmetric_fixed_point",
        lambda: _symmetric(_torus_lattice(3), empty=(2,)),
        7,
    ),
    "hotspot_k4_b1": ("multiclass_fixed_point", lambda: _hotspot(4, 1), MAX_ITER),
    "hotspot_k2_b8": ("multiclass_fixed_point", lambda: _hotspot(2, 8), MAX_ITER),
    "hier_b1": ("multiclass_fixed_point", lambda: _hier([HierParams()]), MAX_ITER),
    "hier_b32": (
        "multiclass_fixed_point",
        lambda: _hier(
            [
                HierParams(
                    clusters=2,
                    cluster_size=3,
                    num_threads=n,
                    p_remote=p,
                    memory_ports=1 + n % 2,
                )
                for n in (1, 2, 4, 8)
                for p in (0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 1.0)
            ]
        ),
        MAX_ITER,
    ),
    "random_s1_b6": (
        "multiclass_fixed_point",
        lambda: _random_networks(1, 6),
        MAX_ITER,
    ),
    "random_s4_b6_queueing": (
        "multiclass_fixed_point",
        lambda: _random_networks(4, 6, mixed=False),
        MAX_ITER,
    ),
    "random_s2_b1": (
        "multiclass_fixed_point",
        lambda: _random_networks(2, 1),
        MAX_ITER,
    ),
    "random_s3_b6_cap0": (
        "multiclass_fixed_point",
        lambda: _random_networks(3, 6),
        0,
    ),
    "random_s3_b6_cap3": (
        "multiclass_fixed_point",
        lambda: _random_networks(3, 6),
        3,
    ),
    "random_s3_b6_cap7": (
        "multiclass_fixed_point",
        lambda: _random_networks(3, 6),
        7,
    ),
}

#: sha256 of each case's raw output bytes (see module docstring)
DIGESTS = {
    "hier_b1": "07993cf25240a4de1d09e3da871a326fa042f0457781817e8ce06b391299965b",
    "hier_b32": "86b55209c260780170bfd7097b9c9ffb0c50a5c307e7f8f532b433cb090191de",
    "hotspot_k2_b8": "479c34501c0ea155a42bbb06f700276141b756c19299258ad8ec8f158ae2c1bc",
    "hotspot_k4_b1": "f72e096cc2a01d0a9757354db82b2aa21ce0556f9e4de825ee05a747e1049677",
    "random_s1_b6": "9b61f411f38bee2f0548d36890009ced2adeb00c1356ead1eda219f1447913f9",
    "random_s2_b1": "e1c4d3c42ce2631cd470b3fc67a3b42d585dc9b65b1ee9bf4c24ef08e3c80ac2",
    "random_s3_b6_cap0": "e258aa5966cab5fb36637ebda738baf5b183ce5afd3f545962afcfd1e2dd9756",
    "random_s3_b6_cap3": "b8a67b56790a873f314e61eebbf50b6f8d52c1135b5c5558163d059ea8d02c56",
    "random_s3_b6_cap7": "ac6974532beece349e1c8071c62e541ce3b5bf88b839dfe437bfbc0299d664ea",
    "random_s4_b6_queueing": "14a51f7c99219832cfaacaf24598bc7efc10b4d5b19775c9b10aec9b6bcd3e59",
    "sym_k2_b12": "accee3fc0b77c688356340d45c2630d06d67be7c1043adffaf1c5b134393c121",
    "sym_k3_b12_cap0": "734c0e7c0a8f9cae2f72985863627aad492fc9c2b43ffc106b9fdea97871b8df",
    "sym_k3_b12_cap3": "e80a7a8e70575d7e7d6accd66b8743ccb2d28ae1cfcd357d41f032ecc1aaa17e",
    "sym_k3_b12_cap7": "125e3a5c4fa8951cc4914b780e51904336ba03bbb12bab528c769c8cb9919695",
    "sym_k3_b12_ports2_empty": "31edcc4f54069d07666f726a5dd257b9d363e04e91856f394b4e4c3a10788e5e",
    "sym_k4_b1": "27dbac75be38bb7d6198bf3045f1a63b7023da9b82370d280c1811b0c1e5acf8",
    "sym_k4_b12_empty": "6db325161b6d8e7b8946674034c56f30c59df8c654c4e1eeb4df4a41a46e92ff",
    "sym_k4_b1_ports2": "a36fefd28acc1954e3b15a6726593725999537834b709e14ca25b481b2c8e5e1",
}


def _digest(res) -> str:
    h = hashlib.sha256()
    for name, dtype in (
        ("q", "<f8"),
        ("w", "<f8"),
        ("x", "<f8"),
        ("iterations", "<i8"),
        ("residual", "<f8"),
    ):
        h.update(np.ascontiguousarray(getattr(res, name), dtype=dtype).tobytes())
    h.update(repr(tuple(int(n) for n in res.trajectory)).encode())
    return h.hexdigest()


def _run(case: str) -> str:
    entry, factory, max_iter = CASES[case]
    return _digest(getattr(reference, entry)(factory(), TOL, max_iter))


# the ids keep the name of the kernel the digests were pinned on
@pytest.mark.parametrize(
    "case", sorted(CASES), ids=[f"numpy-{case}" for case in sorted(CASES)]
)
def test_kernel_output_bits_are_pinned(case):
    assert _run(case) == DIGESTS[case]


if __name__ == "__main__":  # print the digest table for a solver-version bump
    for name in sorted(CASES):
        print(f'    "{name}": "{_run(name)}",')
