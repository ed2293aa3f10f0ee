"""The seeded samplers draw the same instances at fixed seeds.

The sweep, the benchmark's lattice and sweep_mix inputs and many property
tests are built from these draws, so a change to a sampler that shifts one
draw changes all of them.
"""

import hashlib
import random

from simpchrom.sampling import random_graph, random_intersecting_complex


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
