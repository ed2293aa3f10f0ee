"""JSON input formats and canonical output for complexes, graphs and alphas.

Complex file: {"vertices": [str...], "facets": [[str...]...]} or
{"vertices": ..., "minimal_nonfaces": [[str...]...]}, optional "name".
Graph file: {"graph_vertices": [str...], "edges": [[a, b]...]}.
Alpha file: JSON array of {"sigma": [...], "alpha": [...]}.

Canonical output is bit-exact: vertices sorted, faces sorted
lexicographically, keys emitted in sorted order.
"""

from __future__ import annotations

import json

from .auxiliary import AlphaAssignment
from .chromatic import Graph, complex_of_graph
from .complexes import SimplicialComplex
from .polynomials import IntPolynomial


class InputError(Exception):
    """Malformed input file; carries a human-locatable position."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(path, f"cannot read file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc


def _string_list(value, where):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(where, "expected a list of strings")
    return value


def _label_set(value, where) -> frozenset:
    labels = _string_list(value, where)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise InputError(where, f"repeated label {lab!r}")
        seen.add(lab)
    return frozenset(labels)


def _face_list(value, where):
    if not isinstance(value, list):
        raise InputError(where, "expected a list of vertex lists")
    return [_string_list(face, f"{where}[{i}]") for i, face in enumerate(value)]


def complex_from_data(data, where: str = "<data>") -> SimplicialComplex:
    if not isinstance(data, dict):
        raise InputError(where, "expected a JSON object")
    allowed = {"vertices", "facets", "minimal_nonfaces", "name"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(where, f"unknown keys {unknown}")
    if "vertices" not in data:
        raise InputError(where, "missing key 'vertices'")
    vertices = _string_list(data["vertices"], f"{where}.vertices")
    has_facets = "facets" in data
    has_gens = "minimal_nonfaces" in data
    if has_facets == has_gens:
        raise InputError(where, "need exactly one of 'facets' or 'minimal_nonfaces'")
    try:
        if has_facets:
            return SimplicialComplex.from_facets(
                vertices, _face_list(data["facets"], f"{where}.facets"))
        return SimplicialComplex.from_minimal_nonfaces(
            vertices, _face_list(data["minimal_nonfaces"],
                                 f"{where}.minimal_nonfaces"))
    except ValueError as exc:
        raise InputError(where, str(exc)) from exc


def load_complex(path: str) -> SimplicialComplex:
    return complex_from_data(_read_json(path), path)


def complex_to_data(S: SimplicialComplex, name: str | None = None) -> dict:
    out = {"vertices": list(S.vertices),
           "facets": [list(f) for f in S.facets]}
    if name:
        out["name"] = name
    return out


def graph_from_data(data, where: str = "<data>") -> Graph:
    if not isinstance(data, dict):
        raise InputError(where, "expected a JSON object")
    unknown = sorted(set(data) - {"graph_vertices", "edges", "name"})
    if unknown:
        raise InputError(where, f"unknown keys {unknown}")
    for key in ("graph_vertices", "edges"):
        if key not in data:
            raise InputError(where, f"missing key {key!r}")
    vertices = _label_set(data["graph_vertices"], f"{where}.graph_vertices")
    edges = []
    raw = data["edges"]
    if not isinstance(raw, list):
        raise InputError(f"{where}.edges", "expected a list of pairs")
    for i, e in enumerate(raw):
        pair = _string_list(e, f"{where}.edges[{i}]")
        if len(pair) != 2:
            raise InputError(f"{where}.edges[{i}]", "edges are pairs")
        edges.append((pair[0], pair[1]))
    try:
        return Graph(tuple(vertices), tuple(edges))
    except ValueError as exc:
        raise InputError(where, str(exc)) from exc


def load_complex_or_graph(path: str):
    """Read a complex file, or a graph file converted to its nonface complex.

    Returns (complex, kind) with kind "complex" or "graph".
    """
    data = _read_json(path)
    if isinstance(data, dict) and "graph_vertices" in data:
        return complex_of_graph(graph_from_data(data, path)), "graph"
    return complex_from_data(data, path), "complex"


def alpha_from_data(data, where: str = "<data>") -> AlphaAssignment:
    if not isinstance(data, list):
        raise InputError(where, "expected a JSON array of sigma/alpha objects")
    pairs = []
    for i, item in enumerate(data):
        spot = f"{where}[{i}]"
        if not isinstance(item, dict) or set(item) != {"sigma", "alpha"}:
            raise InputError(spot, "expected keys 'sigma' and 'alpha'")
        sigma = _label_set(item["sigma"], f"{spot}.sigma")
        alpha = _label_set(item["alpha"], f"{spot}.alpha")
        pairs.append((sigma, alpha))
    try:
        return AlphaAssignment(tuple(pairs))
    except ValueError as exc:
        raise InputError(where, str(exc)) from exc


def load_alpha(path: str) -> AlphaAssignment:
    return alpha_from_data(_read_json(path), path)


def alpha_to_data(assign: AlphaAssignment) -> list:
    return [{"sigma": sorted(s), "alpha": sorted(a)} for s, a in assign.pairs]


def poly_to_data(p: IntPolynomial) -> dict:
    return {"coeffs": list(p.coeffs)}
