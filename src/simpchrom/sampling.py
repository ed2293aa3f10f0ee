"""Seeded random instances for the property suites and the sweep command.

Everything here is driven by a caller-owned random.Random so runs are
reproducible; no module-level randomness.
"""

from __future__ import annotations

import random

from .chromatic import Graph
from .complexes import SimplicialComplex

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_complex(rng: random.Random, n_min: int = 2, n_max: int = 8,
                   r_max: int = 5, size_max: int = 4) -> SimplicialComplex:
    """Random strict complex given by a random antichain of nonfaces."""
    n = rng.randint(n_min, n_max)
    labels = list(LETTERS[:n])
    target = rng.randint(0, r_max)
    kept: list[frozenset] = []
    tries = 0
    while len(kept) < target and tries < 60:
        tries += 1
        size = rng.randint(2, min(size_max, n))
        g = frozenset(rng.sample(labels, size))
        if any(g <= h or h <= g for h in kept):
            continue
        kept.append(g)
    return SimplicialComplex.from_minimal_nonfaces(
        labels, [tuple(sorted(g)) for g in kept])


def random_intersecting_complex(rng: random.Random, n_max: int = 8,
                                r_max: int = 5) -> SimplicialComplex:
    """Random complex whose minimal nonfaces pairwise intersect."""
    n = rng.randint(3, n_max)
    labels = list(LETTERS[:n])
    target = rng.randint(1, r_max)
    kept: list[frozenset] = []
    tries = 0
    while len(kept) < target and tries < 120:
        tries += 1
        size = rng.randint(2, min(4, n))
        g = frozenset(rng.sample(labels, size))
        if any(g <= h or h <= g or not (g & h) for h in kept):
            continue
        kept.append(g)
    if not kept:
        kept.append(frozenset(rng.sample(labels, 2)))
    return SimplicialComplex.from_minimal_nonfaces(
        labels, [tuple(sorted(g)) for g in kept])


def random_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 6)
    labels = list(LETTERS[:n])
    edges = [(labels[i], labels[j])
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return Graph(tuple(labels), tuple(edges))
