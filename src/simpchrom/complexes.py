"""Finite abstract simplicial complexes, by facets or by minimal nonfaces.

Vertices are label strings, sorted lexicographically; faces live as bitmasks
over that order, bit i standing for the i-th label.  Only this module maps
labels to bits: one encoder, ``_masks``, turns label sets into masks (an
assignment's over the sorted union of its own labels), one unchecked
constructor builds a complex from masks, and one re-indexer, ``_reindex``,
moves masks onto another sorted label set; other modules only read and
combine masks.  A complex keeps the description it was given, facets or
minimal nonfaces (the squarefree-ideal generators), and derives the other
exactly on first use, where the vertex guard sits; so work that reads only
the nonfaces never dualizes.  The face closure takes one of two routes
with the same result: a dense complex, whose 2^n sets number at most 8 times
its facets' subsets, is closed as one 2^n-bit map in n big-integer passes; a
sparser one by a stack walk over its faces.

A complex is "strict" when every vertex is a face.  ``relaxed=True`` lets
the checked constructors admit formal vertices that are nonfaces, as an
auxiliary complex may have; it selects a check and is not stored.

A nonface family is checked once, where label sets enter the library: a
``NonfaceFamily`` a caller builds, ``from_minimal_nonfaces`` given label
lists, and ``auxiliary.auxiliary_complex`` on the alphas of an assignment that
came in.  A family derived from the masks of a complex
(``minimal_nonfaces()``) is an antichain by construction, and its masks are
already in label order, so it is wrapped without the check or a sort; both
lifts and the auxiliary complex a lift hands over are built by the
unchecked constructor from masks alone.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .report import check_limit

VERTEX_LIMIT = 25


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _masks(labels, sets, what: str) -> list[int]:
    """Bitmask of each label set, bit i standing for labels[i].

    An unknown or repeated label is a ValueError that names the offending
    set as a ``what`` (facet, generator).
    """
    index = {v: i for i, v in enumerate(labels)}
    out = []
    for s in sets:
        m = 0
        for lab in s:
            if lab not in index:
                raise ValueError(f"{what} {sorted(s)} references unknown label {lab!r}")
            bit = 1 << index[lab]
            if m & bit:
                raise ValueError(f"repeated vertex in {what} {tuple(sorted(s))}")
            m |= bit
        out.append(m)
    return out


def _later_unions(masks) -> list[int]:
    """Entry j is the union of the masks after masks[j]."""
    out = []
    later = 0
    for m in reversed(masks):
        out.append(later)
        later |= m
    out.reverse()
    return out


def _reindex(old, new):
    """Map of masks over the sorted labels ``old`` onto the sorted labels
    ``new``: it drops the bits of labels not in ``new`` and opens a zero bit
    for each label new to it.  The shared labels keep their order, so they
    move in a few blocks, one shift per block."""
    at = dict(zip(new, range(len(new))))
    shifts = {}  # shift -> the old bits that move by it
    for i, v in enumerate(old):
        j = at.get(v)
        if j is not None:
            shifts[j - i] = shifts.get(j - i, 0) | 1 << i
    blocks = [(bits, max(d, 0), max(-d, 0)) for d, bits in shifts.items()]

    def move(mask: int) -> int:
        out = 0
        for bits, left, right in blocks:
            out |= (mask & bits) << left >> right
        return out

    return move


def _check_vertex_count(n: int) -> None:
    """Face enumeration and dualization walk subsets of the vertex set."""
    check_limit("vertex_count", n, VERTEX_LIMIT, "vertices")


def _antichain_max(masks) -> list[int]:
    """Drop every mask strictly contained in another one.

    The masks must be distinct (callers whose masks can repeat pass a set);
    no copy is made, so each size class rescans all of them.
    Containment needs a strictly larger mask, so each size class is tested
    only against the kept masks of greater size; a family of equal-size
    faces (a pure complex) reduces in linear time.  A mask inside a kept
    mask one size up is that mask less one vertex, so those sets are looked
    up, not scanned; only the classes two or more sizes up are scanned.
    """
    kept: dict[int, list[int]] = {}
    for size in sorted({m.bit_count() for m in masks}, reverse=True):
        under = {k ^ 1 << v for k in kept.get(size + 1, ()) for v in _bits(k)}
        far = [k for s, ks in kept.items() if s > size + 1 for k in ks]
        kept[size] = [m for m in masks if m.bit_count() == size and m not in under
                      and not (far and any(m & k == m for k in far))]
    return [m for group in kept.values() for m in group]


def _grown(masks, n: int):
    """Each mask plus one of the n vertices above its top: a set is met once,
    from itself less its top vertex, in lexicographic order if the masks are."""
    return (m | 1 << v for m in masks for v in range(m.bit_length(), n))


_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
_NONZERO_RUN = re.compile(rb"[^\x00]{1,512}")  # a slice: 4,096 faces at most


def _face_map(facet_masks, n: int) -> int:
    """The closure as a 2^n-bit map, bit m set when m is a face: for each
    vertex v, the sets that hold v pass their bit down to the set less v (the
    OR form of the subset zeta transform), one big-integer pass per vertex.
    Its ``bit_count()`` is the face count."""
    size, holds = (1 << n) + 7 >> 3, (1 << (1 << n)) - 1
    buf = bytearray(size)  # an int's |= would copy all 2^n bits per facet
    for m in facet_masks:
        buf[m >> 3] |= 1 << (m & 7)
    bitmap = int.from_bytes(buf, "little")
    for v in reversed(range(n)):
        holds ^= holds >> (1 << v)  # the sets holding v, halved from v + 1's
        bitmap |= (bitmap & holds) >> (1 << v)
    return bitmap


def _downward_closure(facet_masks, n: int) -> set[int]:
    """Every subset of a facet, in a new set, by one of two routes.

    A dense complex, 2^n <= 8 * sum of 2^|f| over the facets f, is closed as
    one ``_face_map`` and read off its nonzero bytes a bounded slice at a time,
    so no list of every face stands beside the set.  The map costs O(n 2^n)
    whatever the face count, so a sparser complex takes a stack walk, where a
    face enters the stack once, when first met."""
    if 1 << n <= 8 * sum(1 << m.bit_count() for m in facet_masks):
        faces = set()
        data = _face_map(facet_masks, n).to_bytes((1 << n) + 7 >> 3, "little")
        for run in _NONZERO_RUN.finditer(data):
            at = range(8 * run.start(), 8 * run.end(), 8)  # the set at bit 0 of each byte
            faces.update([k + j for k, byte in zip(at, run[0]) for j in _BYTE_BITS[byte]])
        return faces
    faces = set(facet_masks)
    stack = list(faces)
    while stack:
        m = stack.pop()
        mm = m
        while mm:
            b = mm & -mm
            sub = m ^ b
            if sub not in faces:
                faces.add(sub)
                stack.append(sub)
            mm ^= b
    return faces


@dataclass(frozen=True)
class NonfaceFamily:
    """Antichain of vertex-label sets: the squarefree ideal generators, each
    a sorted label tuple, the tuples in sorted order.

    Construction checks the family (no empty generator, no repeated vertex,
    no generator inside another) and sorts it; this is the check every
    family arriving as label sets goes through, once.  Only an equal set or
    a larger one can hold a generator, so repeats are counted in a dict and
    each generator is tested against the larger generators alone, largest
    first; an equal-size family needs no pairwise test.  The first offending
    generator is reported with the first generator that holds it.
    """

    generators: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        gens = [tuple(sorted(g)) for g in self.generators]
        sets = [frozenset(g) for g in gens]
        largest_first = sorted(sets, key=len, reverse=True)
        repeats = Counter(sets) if len(set(sets)) < len(sets) else {}
        for i, g in enumerate(sets):
            if not g:
                raise ValueError("empty generator")
            if len(g) != len(gens[i]):
                raise ValueError(f"repeated vertex in generator {gens[i]}")
            for h in largest_first:
                if len(h) > len(g):
                    if not g < h:
                        continue
                elif repeats.get(g, 1) == 1:
                    break  # past the larger ones, only a repeat holds g
                j = next(k for k, s in enumerate(sets) if k != i and g <= s)
                raise ValueError(
                    f"generators are not an antichain: {gens[i]} <= {gens[j]}")
        object.__setattr__(self, "generators", tuple(sorted(gens)))

    def __len__(self):
        return len(self.generators)


class SimplicialComplex:
    """Immutable vertex-labeled complex; all equality is on canonical form.

    The constructor is unchecked: ``facet_masks`` and ``nonface_masks`` are
    antichains over the canonical ``vertices``; one of them may be left out,
    to be derived from the other on first use (equality reads the facets)."""

    def __init__(self, vertices, facet_masks=None, nonface_masks=None):
        self.vertices = tuple(vertices)
        if facet_masks is not None:
            self.__dict__["facet_masks"] = _sort_masks(facet_masks)
        if nonface_masks is not None:
            self.__dict__["minimal_nonface_masks"] = _sort_masks(nonface_masks)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_facets(cls, labels, facets, relaxed: bool = False) -> "SimplicialComplex":
        """Build from maximal faces; facets are reduced to an antichain.

        Unless ``relaxed``, every label must appear in some facet.
        """
        verts = _canonical_labels(labels)
        masks = _masks(verts, facets, "facet")
        masks = _antichain_max(set(masks)) if masks else [0]
        if not relaxed:
            covered = 0
            for m in masks:
                covered |= m
            missing = [verts[i] for i in range(len(verts)) if not covered >> i & 1]
            if missing:
                raise ValueError(f"labels in no face: {missing}")
        return cls(verts, masks)

    @classmethod
    def from_minimal_nonfaces(cls, labels, generators,
                              relaxed: bool = False) -> "SimplicialComplex":
        """Build the complex whose faces are exactly the generator-free subsets.

        Label lists are checked as a ``NonfaceFamily``; a family is taken as is.
        """
        verts = _canonical_labels(labels)
        family = generators if isinstance(generators, NonfaceFamily) \
            else NonfaceFamily(tuple(tuple(g) for g in generators))
        gen_masks = _masks(verts, family.generators, "generator")
        if not relaxed:
            for g, m in zip(family.generators, gen_masks):
                if m.bit_count() == 1:
                    raise ValueError(
                        f"singleton generator {list(g)} leaves vertex {g[0]!r} in no face")
        return cls(verts, nonface_masks=gen_masks)

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in _bits(mask))

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        _check_vertex_count(self.n)
        return _sort_masks(_maximal_generator_free(self.n,
                                                   self.minimal_nonface_masks))

    @property
    def facets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.labels_of(m) for m in self.facet_masks)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.vertices == other.vertices
                and self.facet_masks == other.facet_masks)

    def __hash__(self):
        return hash((self.vertices, self.facet_masks))

    def __repr__(self):
        return (f"SimplicialComplex(vertices={list(self.vertices)}, "
                f"facets={[list(f) for f in self.facets]})")

    # -- face enumeration --------------------------------------------------

    @cached_property
    def face_masks(self) -> set[int]:
        """Every face: the closure's own set, shared, so never mutated."""
        _check_vertex_count(self.n)
        return _downward_closure(self.facet_masks, self.n)

    @cached_property
    def faces_by_size(self) -> tuple[tuple[int, ...], ...]:
        """Face masks grouped by vertex count, entry i holding the i-vertex
        faces in lexicographic order, each group grown from the one before."""
        faces, groups = self.face_masks, [(0,)]
        for _ in range(self.dimension + 1):
            groups.append(tuple(g for g in _grown(groups[-1], self.n) if g in faces))
        return tuple(groups)

    @property
    def dimension(self) -> int:
        return max(m.bit_count() for m in self.facet_masks) - 1

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_{dim}); f_-1 = 1 counts the empty face."""
        counts = [0] * (self.dimension + 2)
        for m in self.face_masks:
            counts[m.bit_count()] += 1
        return tuple(counts)

    @cached_property
    def minimal_nonface_masks(self) -> tuple[int, ...]:
        """Derived: the sets grown from the faces that are nonfaces with every
        one-short subset a face."""
        faces = self.face_masks
        return _sort_masks(g for g in _grown(faces, self.n) if g not in faces
                           and all(g ^ 1 << u in faces for u in _bits(g)))

    def minimal_nonfaces(self) -> NonfaceFamily:
        family = object.__new__(NonfaceFamily)  # an antichain, in label order
        object.__setattr__(family, "generators",
                           tuple(map(self.labels_of, self.minimal_nonface_masks)))
        return family


def _canonical_labels(labels) -> tuple[str, ...]:
    labs = list(labels)
    if len(set(labs)) != len(labs):
        dup = sorted(x for x, k in Counter(labs).items() if k > 1)
        raise ValueError(f"duplicate labels: {dup}")
    for lab in labs:
        if not isinstance(lab, str):
            raise ValueError(f"labels must be strings, got {lab!r}")
    return tuple(sorted(labs))


def _mask_key(mask: int) -> tuple:
    return tuple(_bits(mask))


def _sort_masks(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=_mask_key))


def _maximal_generator_free(n: int, gen_masks) -> list[int]:
    """All maximal subsets of [n] containing no generator.

    Branching dualization over (set, kept vertices) pairs, smallest
    generator first.  At a set m holding some generator g (the first in size
    order), every generator-free set T with kept <= T <= m misses a vertex of
    g outside kept; branch i drops the i-th such vertex and keeps the ones
    before it, so each T lies in exactly one branch, and if g lies wholly
    inside kept the branch holds no T and ends.  Branches i < j differ on
    vertex i, dropped in one and kept in the other, so each set is met once
    and no visited set is needed: the leaves are distinct.  Every maximal T
    is a leaf; ``_antichain_max`` drops the leaves that are not maximal.
    Most leaves are not (103,682 for the 1,130 facets of the 25-cycle), so
    they are 8-byte words, not ints; the vertex guard keeps n within one.

    The sort is stable, so an equal-size family keeps its given order: at
    each set the first generator is the one a walk that branches on every
    vertex of it and skips revisits would take, and this walk meets a subset
    of that walk's sets.  On U(n, k), whose nonfaces are the (k+1)-sets in
    lexicographic order, it is all of them, C(n+1, k+1) sets.

    A child set's scan starts just past its parent's generator g: every
    earlier generator misses the parent, hence the child, and g loses the
    dropped vertex, so the first generator inside the child is where a scan
    from the start would find it, with fewer containment tests.
    """
    gens = sorted(gen_masks, key=int.bit_count)
    found = array("Q")
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        m, kept, start = stack.pop()
        for g in islice(gens, start, None):
            if g & m == g:
                break
        else:
            found.append(m)
            continue
        start = gens.index(g, start) + 1
        for v in _bits(g & ~kept):
            bit = 1 << v
            stack.append((m ^ bit, kept, start))
            kept |= bit
    return _antichain_max(found)


def fresh_label(existing, base: str) -> str:
    """A label not in ``existing``: the base itself, else base0, base1, ..."""
    if base not in existing:
        return base
    k = 0
    while f"{base}{k}" in existing:
        k += 1
    return f"{base}{k}"
