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
the nonfaces never dualizes.

A complex is "strict" when every vertex is a face.  ``relaxed=True`` lets
the checked constructors admit formal vertices that are nonfaces, as an
auxiliary complex may have; it selects a check and is not stored.

A nonface family is checked once, where label sets enter the library: a
``NonfaceFamily`` a caller builds, ``from_minimal_nonfaces`` given label
lists, and ``auxiliary.auxiliary_complex`` on the alphas of an assignment that
came in.  A family derived from the masks of a complex
(``minimal_nonfaces()``) is an antichain by construction and is wrapped by
``_antichain_family`` without the check; both lifts and the auxiliary
complex a lift hands over are built by the unchecked constructor from
masks alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    Containment needs a strictly larger mask, so each size class is tested
    only against the kept masks of greater size; a family of equal-size
    faces (a pure complex) reduces in linear time.
    """
    by_size: dict[int, list[int]] = {}
    for m in set(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    out: list[int] = []
    for size in sorted(by_size, reverse=True):
        bigger = list(out)
        out.extend(m for m in by_size[size]
                   if not any(m & k == m for k in bigger))
    return out


def _grown(masks, n: int):
    """Each mask plus one of the n vertices above its top: a set is met once,
    from itself less its top vertex, in lexicographic order if the masks are."""
    return (m | 1 << v for m in masks for v in range(m.bit_length(), n))


def _downward_closure(facet_masks) -> set[int]:
    """Every subset of a facet; a face enters the stack once, when first met."""
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
    family arriving as label sets goes through, once.
    """

    generators: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        gens = [tuple(sorted(g)) for g in self.generators]
        sets = [frozenset(g) for g in gens]
        for i, g in enumerate(sets):
            if not g:
                raise ValueError("empty generator")
            if len(g) != len(gens[i]):
                raise ValueError(f"repeated vertex in generator {gens[i]}")
            for j, h in enumerate(sets):
                if i != j and g <= h:
                    raise ValueError(
                        f"generators are not an antichain: {gens[i]} <= {gens[j]}")
        object.__setattr__(self, "generators", tuple(sorted(gens)))

    def __len__(self):
        return len(self.generators)


def _antichain_family(generators) -> NonfaceFamily:
    """Sorted label tuples that form an antichain by construction, wrapped
    and put in canonical order without the input check."""
    family = object.__new__(NonfaceFamily)
    object.__setattr__(family, "generators", tuple(sorted(generators)))
    return family


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
        masks = _antichain_max(masks) if masks else [0]
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
    def face_masks(self) -> frozenset:
        _check_vertex_count(self.n)
        return frozenset(_downward_closure(self.facet_masks))

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

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_{dim}); f_-1 = 1 counts the empty face."""
        return self._f_vector

    @cached_property
    def _f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dimension + 2)
        for m in self.face_masks:
            counts[m.bit_count()] += 1
        return tuple(counts)

    def euler_characteristics(self) -> tuple[int, int]:
        """(chi, chi_reduced): alternating face-count sum and chi - 1."""
        f = self.f_vector()
        chi = sum((-1) ** i * f[i + 1] for i in range(len(f) - 1))
        return chi, chi - 1

    @cached_property
    def minimal_nonface_masks(self) -> tuple[int, ...]:
        """Derived: the sets grown from the faces that are nonfaces with every
        one-short subset a face."""
        faces = self.face_masks
        return _sort_masks(g for g in _grown(faces, self.n) if g not in faces
                           and all(g ^ 1 << u in faces for u in _bits(g)))

    def minimal_nonfaces(self) -> NonfaceFamily:
        return _antichain_family(self.labels_of(m)
                                 for m in self.minimal_nonface_masks)


def _canonical_labels(labels) -> tuple[str, ...]:
    labs = list(labels)
    if len(set(labs)) != len(labs):
        dup = sorted({x for x in labs if labs.count(x) > 1})
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

    Branching dualization: from a set containing some generator, recurse on
    removing each of that generator's vertices.  Visited-set memoization keeps
    the walk polynomial in the output at desk scale.
    """
    full = (1 << n) - 1
    found = []
    seen = set()
    stack = [full]
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        hit = -1
        for g in gen_masks:
            if g & m == g:
                hit = g
                break
        if hit < 0:
            found.append(m)
        else:
            for v in _bits(hit):
                stack.append(m & ~(1 << v))
    return _antichain_max(found)


def fresh_label(existing, base: str) -> str:
    """A label not in ``existing``: the base itself, else base0, base1, ..."""
    if base not in existing:
        return base
    k = 0
    while f"{base}{k}" in existing:
        k += 1
    return f"{base}{k}"
