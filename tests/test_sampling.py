"""The seeded samplers draw the same instances at fixed seeds.

The sweep, the benchmark's lattice and sweep_mix inputs and many property
tests are built from these draws, so a change to a sampler that shifts one
draw changes all of them.
"""

import hashlib
import random

import pytest

from simpchrom.sampling import (random_complex, random_graph,
                                random_intersecting_complex)


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _complex_key(S):
    return S.vertices, S.minimal_nonfaces().generators


def test_random_graph_draws_are_pinned():
    rng = random.Random(20)
    graphs = [random_graph(rng) for _ in range(200)]
    got = [(G.vertices, G.edges) for G in graphs] + [rng.random()]
    assert _digest(got) == "83097ad760f1f836"


def test_random_intersecting_complex_draws_are_pinned():
    rng = random.Random(20)
    defaults = [_complex_key(random_intersecting_complex(rng)) for _ in range(200)]
    assert _digest(defaults + [rng.random()]) == "ecca87a4f5dad4de"
    # the lattice workload's search families are drawn this way
    rng = random.Random("lattice:20")
    lattice = [_complex_key(random_intersecting_complex(rng, n_max=8, r_max=6))
               for _ in range(200)]
    assert _digest(lattice + [rng.random()]) == "3d41dc89c14cce81"


def test_the_benchmark_heavy_search_families_are_pinned():
    # perfbench's lattice workload runs these four families every round
    got = [_complex_key(random_intersecting_complex(random.Random(f"search:{s}"),
                                                    n_max=8, r_max=8))
           for s in (1833, 1336, 1459, 1282)]
    assert _digest(got) == "3eec7561462fd915"


# (sampler, keyword arguments, digest of 100 draws and the rng's next value
# at each of the seeds 0, 1 and 2), for the parameter sets that the sweep, the
# benchmark and the tests use
STREAMS = [
    # the sweep's and the benchmark's sweep_mix draws
    (random_complex, {"n_max": 6, "r_max": 4}, "95d088244e6e6366"),
    (random_complex, {"n_max": 8, "r_max": 5}, "40c13e7e1d25c0c2"),
    # property tests
    (random_complex, {"n_max": 7}, "9c4671dd8a486471"),
    (random_complex, {"n_min": 2, "n_max": 4, "r_max": 3}, "1559ffb6da25627f"),
    (random_complex, {"n_max": 7, "r_max": 6}, "9d80c213284ee9de"),
    (random_complex, {"n_max": 8, "r_max": 8}, "58954b37f4a749ff"),
    (random_complex, {"n_min": 12, "n_max": 12, "r_max": 12, "size_max": 5},
     "0b56075be023e8da"),
    # the benchmark's lattice draws: its search pool and heavy families
    (random_intersecting_complex, {"n_max": 8, "r_max": 6}, "f3d4cb461e3b27cc"),
    (random_intersecting_complex, {"n_max": 8, "r_max": 8}, "ec33e0550d4b9471"),
    # property tests
    (random_intersecting_complex, {"n_max": 7, "r_max": 4}, "4413fa4af197fcfd"),
    (random_intersecting_complex, {"n_max": 8, "r_max": 5}, "465aac2523106729"),
]


@pytest.mark.parametrize("sampler, kwargs, expected", STREAMS)
def test_sampler_streams_are_pinned(sampler, kwargs, expected):
    draws = []
    for seed in range(3):
        rng = random.Random(seed)
        draws += [_complex_key(sampler(rng, **kwargs)) for _ in range(100)]
        draws.append(rng.random())
    assert _digest(draws) == expected
