"""Seeded random instances for the property suites and the sweep command.

Everything here is driven by a caller-owned random.Random so runs are
reproducible; no module-level randomness.
"""

from __future__ import annotations

import random

from .chromatic import Graph
from .complexes import SimplicialComplex

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _antichain_complex(rng: random.Random, n: int, target: int, size_max: int,
                       tries: int, meet: bool) -> SimplicialComplex:
    """Complex on the first n letters whose minimal nonfaces are up to
    ``target`` random sets of 2..size_max letters, drawn in at most ``tries``
    draws; a draw that is comparable with a kept set, or misses one when
    ``meet`` asks them to intersect, is dropped."""
    labels = list(LETTERS[:n])
    kept: list[frozenset] = []
    while len(kept) < target and tries:
        tries -= 1
        size = rng.randint(2, min(size_max, n))
        g = frozenset(rng.sample(labels, size))
        if not any(g <= h or h <= g or (meet and not g & h) for h in kept):
            kept.append(g)
    return SimplicialComplex.from_minimal_nonfaces(
        labels, [tuple(sorted(g)) for g in kept])


def random_complex(rng: random.Random, n_min: int = 2, n_max: int = 8,
                   r_max: int = 5, size_max: int = 4) -> SimplicialComplex:
    """Random strict complex given by a random antichain of nonfaces."""
    n = rng.randint(n_min, n_max)
    return _antichain_complex(rng, n, rng.randint(0, r_max), size_max, 60, False)


def random_intersecting_complex(rng: random.Random, n_max: int = 8,
                                r_max: int = 5) -> SimplicialComplex:
    """Random complex whose minimal nonfaces pairwise intersect."""
    n = rng.randint(3, n_max)
    return _antichain_complex(rng, n, rng.randint(1, r_max), 4, 120, True)


def random_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 6)
    labels = list(LETTERS[:n])
    edges = [(labels[i], labels[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return Graph(tuple(labels), tuple(edges))
