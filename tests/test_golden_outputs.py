"""Byte-identity of the CLI: a sha256 of every run's exit code, stdout and stderr.

A refactor must leave these digests alone.  When a change alters an output on
purpose, update the digest here and say in CHANGES.md what changed and why.
Input files are written to a temporary directory and named by relative path,
so error messages that quote the path stay the same on every machine.
"""

import hashlib
import json
from itertools import combinations

import pytest

from simpchrom.cli import main

FILES = {
    "c5-graph.json": {"graph_vertices": ["a", "b", "c", "d", "e"],
                      "edges": [["a", "b"], ["b", "c"], ["c", "d"],
                                ["d", "e"], ["a", "e"]]},
    # e lies in no minimal nonface, so the numerator's ground set is smaller
    # than the vertex set
    "lonely.json": {"vertices": ["a", "b", "c", "d", "e"],
                    "minimal_nonfaces": [["a", "b", "c"], ["c", "d"]]},
    "ac.json": {"vertices": ["1", "2", "3", "4", "5"],
                "minimal_nonfaces": [["1", "2"], ["2", "3", "4"], ["4", "5"]]},
    "tri.json": {"vertices": ["1", "2", "3"],
                 "minimal_nonfaces": [["1", "2", "3"]]},
    # the full simplex: no minimal nonfaces, so K = 1
    "simplex.json": {"vertices": ["a", "b", "c"], "facets": [["a", "b", "c"]]},
    "square.json": {"vertices": ["a", "b", "c", "d"],
                    "minimal_nonfaces": [["a", "c"], ["b", "d"]]},
    # the disjoint lift of the octahedron boundary: its auxiliary complex is
    # the octahedron again, so reciprocity records the literal t^5/t^3 claim
    "octa-lift.json": {"vertices": ["a", "b", "c", "d", "e", "f",
                                    "q1", "q2", "q3"],
                       "minimal_nonfaces": [["a", "c", "q1"], ["b", "d", "q2"],
                                            ["e", "f", "q3"]]},
    "rp2.json": {"vertices": ["1", "2", "3", "4", "5", "6"],
                 "facets": [["1", "2", "3"], ["1", "3", "4"], ["1", "4", "5"],
                            ["1", "5", "6"], ["1", "2", "6"], ["2", "3", "5"],
                            ["2", "4", "5"], ["2", "4", "6"], ["3", "4", "6"],
                            ["3", "5", "6"]]},
    # the apex lift of ac.json and its assignment, as `lift --mode apex`
    # prints them: logconcavity then takes the identity route
    "ac-apex.json": {"vertices": ["1", "2", "3", "4", "5", "q"],
                     "facets": [["1", "2", "3", "4", "5"], ["1", "3", "4", "q"],
                                ["1", "3", "5", "q"], ["2", "3", "5", "q"],
                                ["2", "4", "q"]]},
    "ac-apex-alpha.json": [{"sigma": ["1", "2", "q"], "alpha": ["1", "2"]},
                           {"sigma": ["2", "3", "4", "q"],
                            "alpha": ["2", "3", "4"]},
                           {"sigma": ["4", "5", "q"], "alpha": ["4", "5"]}],
    # the disjoint lift of square.json and its assignment, as `lift --mode
    # disjoint` prints them: the fresh vertices differ, so the assignment is
    # not apex-shaped, and the state pass proves the target invariant
    "square-disjoint.json": {"vertices": ["a", "b", "c", "d", "q1", "q2"],
                             "facets": [["a", "b", "c", "d"], ["a", "b", "c", "q2"],
                                        ["a", "b", "d", "q1"], ["a", "b", "q1", "q2"],
                                        ["a", "c", "d", "q2"], ["a", "d", "q1", "q2"],
                                        ["b", "c", "d", "q1"], ["b", "c", "q1", "q2"],
                                        ["c", "d", "q1", "q2"]]},
    "square-disjoint-alpha.json": [{"sigma": ["a", "c", "q1"], "alpha": ["a", "c"]},
                                   {"sigma": ["b", "d", "q2"], "alpha": ["b", "d"]}],
    # sigma ac given twice: as a set the sigmas are the square's minimal
    # nonfaces, as a list they are not
    "square-repeated-sigma.json": [{"sigma": ["a", "c"], "alpha": ["a"]},
                                   {"sigma": ["a", "c"], "alpha": ["c"]},
                                   {"sigma": ["b", "d"], "alpha": ["b"]}],
    # the right sigmas, but both alphas are {a}: not an antichain
    "square-alpha-not-antichain.json": [{"sigma": ["a", "c"], "alpha": ["a"]},
                                        {"sigma": ["b", "d"], "alpha": ["a"]}],
    # the apex lift's fresh vertex q0 sorts between q and z, so its bit is
    # not the top one
    "aqz.json": {"vertices": ["a", "q", "z"], "minimal_nonfaces": [["a", "z"]]},
    # the merge vertex of verify-ac is w0, which sorts between w and x
    "avwxz.json": {"vertices": ["a", "v", "w", "x", "z"],
                   "minimal_nonfaces": [["a", "x"], ["v", "z"]]},
    # the octahedron boundary: its disjoint lift has 27 facets on 9 vertices
    "octahedron.json": {"vertices": ["a", "b", "c", "d", "e", "f"],
                        "minimal_nonfaces": [["a", "c"], ["b", "d"], ["e", "f"]]},
    # sigma ac lists c twice and alpha lists a twice
    "square-repeated-label.json": [{"sigma": ["a", "c", "c"], "alpha": ["a", "a"]},
                                   {"sigma": ["b", "d"], "alpha": ["b"]}],
    # facet ab lists a twice
    "repeated-facet-label.json": {"vertices": ["a", "b"],
                                  "facets": [["a", "a", "b"]]},
    "bad-facet-label.json": {"vertices": ["a", "b"], "facets": [["a", "z"]]},
    "bad-generator-label.json": {"vertices": ["a", "b", "c"],
                                 "minimal_nonfaces": [["a", "b"], ["c", "y"]]},
    "not-antichain.json": {"vertices": ["a", "b", "c"],
                           "minimal_nonfaces": [["a", "b"], ["a", "b", "c"]]},
    "repeated-vertex.json": {"vertices": ["a", "b", "c"],
                             "minimal_nonfaces": [["a", "a", "b"]]},
    "wide-facets.json": {"vertices": [f"v{i:02d}" for i in range(30)],
                         "facets": [[f"v{i:02d}" for i in range(30)]]},
    "wide-nonfaces.json": {"vertices": [f"v{i:02d}" for i in range(26)],
                           "minimal_nonfaces": [["v00", "v01"]]},
    # 25 vertices pass the vertex guard; the apex lift builds its 26 from
    # masks and enumerates nothing, the disjoint lift's dualization is refused
    "wide-lift.json": {"vertices": [f"v{i:02d}" for i in range(25)],
                       "minimal_nonfaces": [["v00", "v01"]]},
    # U(16,4): d_0..d_2 pass the guards, the 560 x 1820 d_3 does not
    "u16-4.json": {"vertices": [f"v{i:02d}" for i in range(16)],
                   "facets": [list(c) for c in combinations(
                       [f"v{i:02d}" for i in range(16)], 4)]},
    # the boundary of the 11-dimensional cross-polytope, 11 antipodal pairs:
    # d_3, 1320 x 5280, is the first matrix past the SNF limit
    "cross-polytope-11.json": {"vertices": [f"v{i:02d}" for i in range(22)],
                               "minimal_nonfaces": [[f"v{i:02d}", f"v{i + 1:02d}"]
                                                    for i in range(0, 22, 2)]},
    # the apex lift of U(7,4): 21 nonfaces; verify-cc and hilb-window decide
    # c(I) = a from pairs of them
    "u7-4-apex.json": {"vertices": [f"v{i}" for i in range(1, 8)] + ["q"],
                       "minimal_nonfaces": [list(c) + ["q"] for c in combinations(
                           [f"v{i}" for i in range(1, 8)], 5)]},
    # the apex assignment of u7-4-apex.json with one alpha that keeps q and
    # drops v5: not apex-shaped, and it fails the target invariant
    "u7-4-apex-alpha-not-apex.json": [
        {"sigma": list(c) + ["q"],
         "alpha": list(c) if i else list(c[:-1]) + ["q"]}
        for i, c in enumerate(combinations([f"v{i}" for i in range(1, 8)], 5))],
    # U(9,6): 36 minimal nonfaces
    "u9-6.json": {"vertices": [f"v{i:02d}" for i in range(9)],
                  "facets": [list(c) for c in combinations(
                      [f"v{i:02d}" for i in range(9)], 6)]},
    # K_8: 28 edges, so 28 minimal nonfaces
    "k8-graph.json": {"graph_vertices": list("abcdefgh"),
                      "edges": [list(e) for e in combinations("abcdefgh", 2)]},
    # malformed input files: each one fails one check of the reader
    "complex-array.json": [["a", "b"]],
    # a string is written as it stands: a comma is missing at line 2
    "malformed.json": '{"vertices": ["a", "b"]\n"facets": [["a", "b"]]}',
    "no-vertices.json": {"facets": [["a", "b"]]},
    "facets-string.json": {"vertices": ["a", "b"], "facets": "ab"},
    "graph-repeated-label.json": {"graph_vertices": ["a", "b", "a"],
                                  "edges": [["a", "b"]]},
    "graph-unknown-key.json": {"graph_vertices": ["a", "b"],
                               "edges": [["a", "b"]], "x": 1},
    "graph-no-edges.json": {"graph_vertices": ["a", "b"]},
    "graph-edges-string.json": {"graph_vertices": ["a", "b"], "edges": "ab"},
    # well-formed graph files whose edges the graph itself rejects
    "graph-loop.json": {"graph_vertices": ["a", "b"], "edges": [["a", "a"]]},
    "graph-unknown-vertex.json": {"graph_vertices": ["a", "b"],
                                  "edges": [["a", "z"]]},
    "graph-duplicate-edge.json": {"graph_vertices": ["a", "b"],
                                  "edges": [["a", "b"], ["b", "a"]]},
    "alpha-object.json": {"sigma": ["a", "c"], "alpha": ["a"]},
    # |alpha| = |sigma| for sigma ac
    "square-alpha-too-big.json": [{"sigma": ["a", "c"], "alpha": ["a", "c"]},
                                  {"sigma": ["b", "d"], "alpha": ["b"]}],
}

RUNS = {
    "sweep-42": ["sweep", "--seed", "42"],
    "chromatic-graph": ["chromatic", "c5-graph.json"],
    "hilbert-expand": ["hilbert", "lonely.json", "--expand", "6"],
    # one degree past the series' degree limit, and far past it: the series
    # refuses both before it computes K
    "hilbert-expand-degree-limit": ["hilbert", "square.json", "--expand", "13"],
    "guard-monomial-degree": ["hilbert", "square.json", "--expand", "1000000"],
    "chromatic-k8": ["chromatic", "k8-graph.json"],
    "hilbert-u9-6": ["hilbert", "u9-6.json"],
    "verify-ac-merge": ["verify-ac", "ac.json", "--nonface", "2,3,4"],
    "verify-ac-remove": ["verify-ac", "ac.json", "--nonface", "2,3,4",
                         "--convention", "remove"],
    "verify-ac-merge-mid-order": ["verify-ac", "avwxz.json", "--nonface", "a,x"],
    "verify-ac-remove-mid-order": ["verify-ac", "avwxz.json", "--nonface", "a,x",
                                   "--convention", "remove"],
    "verify-theorem-search": ["verify-theorem", "square.json", "--search"],
    "reciprocity-search": ["reciprocity", "octa-lift.json", "--search"],
    "logconcavity": ["logconcavity", "ac.json"],
    "homology": ["homology", "rp2.json"],
    "uniform-apex": ["uniform", "--n", "9", "--r", "6", "--lift", "apex"],
    # U(8,4)'s nonfaces overlap, so the disjoint lift is a usage error
    "uniform-disjoint": ["uniform", "--n", "8", "--r", "4", "--lift", "disjoint"],
    # one vertex past the uniform builder's limit
    "guard-uniform-vertices": ["uniform", "--n", "21", "--r", "2"],
    "guard-cyclotomic-index": ["cyclo-poly", "--n", "1000001"],
    # Phi_1 = x - 1 is the one n whose signs do not cancel; 2310 is even, so
    # the prime 2 contributes factors (1 - x^m) with m = 1
    "cyclo-poly-1": ["cyclo-poly", "--n", "1"],
    "cyclo-poly-105": ["cyclo-poly", "--n", "105"],
    "cyclo-poly-2310": ["cyclo-poly", "--n", "2310"],
    "lift-apex-free-vertex": ["lift", "lonely.json", "--mode", "apex"],
    "lift-disjoint": ["lift", "square.json", "--mode", "disjoint"],
    "lift-disjoint-octahedron": ["lift", "octahedron.json", "--mode", "disjoint"],
    "lift-apex-mid-order": ["lift", "aqz.json", "--mode", "apex"],
    "lift-disjoint-mid-order": ["lift", "aqz.json", "--mode", "disjoint"],
    # the text printer: lists of lists (the facets) and lists of dicts (the
    # assignment)
    "lift-disjoint-pretty": ["lift", "square.json", "--mode", "disjoint",
                             "--pretty"],
    # JSON scalars in the text form: null, true and false; and an empty list
    # (the simplex has no nonface, so no assignment)
    "dehn-sommerville-pretty": ["dehn-sommerville", "octahedron.json",
                                "--pretty"],
    "verify-theorem-search-pretty": ["verify-theorem", "square.json",
                                     "--search", "--pretty"],
    "lift-apex-simplex-pretty": ["lift", "simplex.json", "--mode", "apex",
                                 "--pretty"],
    # the octahedron boundary's h = (1, 3, 3, 1) is symmetric; ac.json's
    # h = (1, 2, 1, -1) is not
    "dehn-sommerville-pass": ["dehn-sommerville", "octahedron.json"],
    "dehn-sommerville-fail": ["dehn-sommerville", "ac.json"],
    "cyclo-check": ["cyclo-check", "--primes", "3,5,7", "--j", "7"],
    # runs whose bytes come from the Smith normal form: the top Betti number
    # at c = 0 and c = -2, a zero-based FAIL, Z/2 in degree 2 (c = 2) and
    # Z in degrees 2 and 3 (c = 0)
    "cyclcheck-c0": ["cyclo-check", "--primes", "3,5,7", "--j", "3",
                     "--mode", "cyclcheck"],
    "cyclcheck-c-2": ["cyclo-check", "--primes", "3,5,7", "--j", "7",
                      "--mode", "cyclcheck"],
    "cyclo-check-zero": ["cyclo-check", "--primes", "3,5,7", "--j", "7",
                         "--labeling", "zero"],
    "cyclo-check-four-primes-torsion": ["cyclo-check", "--primes", "2,3,5,7",
                                        "--j", "41"],
    "cyclo-check-four-primes-free": ["cyclo-check", "--primes", "2,3,5,7",
                                     "--j", "3"],
    "logconcavity-identity": ["logconcavity", "ac-apex.json",
                              "--alpha", "ac-apex-alpha.json"],
    "logconcavity-state-pass": ["logconcavity", "square-disjoint.json",
                                "--alpha", "square-disjoint-alpha.json"],
    "error-repeated-sigma-verify": ["verify-theorem", "square.json", "--alpha",
                                    "square-repeated-sigma.json"],
    "error-repeated-sigma-logconcavity": ["logconcavity", "square.json",
                                          "--alpha", "square-repeated-sigma.json"],
    "error-repeated-sigma-reciprocity": ["reciprocity", "square.json", "--alpha",
                                         "square-repeated-sigma.json"],
    "error-alpha-not-antichain": ["verify-theorem", "square.json", "--alpha",
                                  "square-alpha-not-antichain.json"],
    "error-alpha-repeated-label": ["verify-theorem", "square.json", "--alpha",
                                   "square-repeated-label.json"],
    "error-nonface-label": ["verify-ac", "square.json", "--nonface", "a,zz"],
    "error-repeated-nonface-label": ["verify-ac", "square.json", "--nonface",
                                     "a,c,c"],
    "error-repeated-facet-label": ["chromatic", "repeated-facet-label.json"],
    "error-facet-label": ["chromatic", "bad-facet-label.json"],
    "error-generator-label": ["chromatic", "bad-generator-label.json"],
    "error-not-antichain": ["chromatic", "not-antichain.json"],
    "error-repeated-vertex": ["chromatic", "repeated-vertex.json"],
    "guard-vertices-facets": ["chromatic", "wide-facets.json"],
    # chi_c reads only the nonfaces, so the 26 vertices pass; the h-vector
    # and the boundary matrices need the facets, and the vertex guard
    # refuses them
    "chromatic-wide-nonfaces": ["chromatic", "wide-nonfaces.json"],
    "guard-vertices-nonfaces-hilbert": ["hilbert", "wide-nonfaces.json"],
    "guard-vertices-nonfaces-homology": ["homology", "wide-nonfaces.json"],
    "guard-matrix-size": ["homology", "u16-4.json"],
    "homology-cross-polytope-11": ["homology", "cross-polytope-11.json"],
    "lift-apex-26-vertices": ["lift", "wide-lift.json", "--mode", "apex"],
    "guard-vertices-disjoint-lift": ["lift", "wide-lift.json", "--mode",
                                     "disjoint"],
    # e lies in no minimal nonface, so the count ends on a free tail
    "oracle-count-free-tail": ["oracle-count", "lonely.json", "--q", "3"],
    "oracle-count": ["oracle-count", "ac.json", "--q", "4"],
    "oracle-count-q0": ["oracle-count", "tri.json", "--q", "0"],
    # 101^4 tuples: the count, 101^2 100^2, comes from the class table, whose
    # states are bounded, and no bound on the tuples applies
    "guard-model-size": ["oracle-count", "square.json", "--q", "101"],
    # q = 10^1100: the count, q^2 (q-1)^2, has 4400 digits, more than
    # Python writes out by default, so it is refused, in either form
    "guard-count-digits": ["oracle-count", "square.json", "--q",
                           "1" + "0" * 1100],
    "guard-count-digits-pretty": ["oracle-count", "square.json", "--q",
                                  "1" + "0" * 1100, "--pretty"],
    "error-negative-q": ["oracle-count", "square.json", "--q", "-1"],
    "error-negative-expand": ["hilbert", "square.json", "--expand", "-1"],
    # constant-component witnesses: the first disjoint pair when a = 1, the
    # first nonface alone otherwise
    "verify-cc-disjoint-pair": ["verify-cc", "square.json", "--a", "1"],
    "verify-cc-singleton": ["verify-cc", "ac.json", "--a", "2"],
    "hilb-window-disjoint-pair": ["hilb-window", "square.json", "--a", "1"],
    # a component count is never negative, so a < 0 is a usage error
    "verify-cc-negative-a": ["verify-cc", "square.json", "--a", "-1"],
    "hilb-window-negative-a": ["hilb-window", "simplex.json", "--a", "-1"],
    "verify-cc-apex-lift": ["verify-cc", "u7-4-apex.json", "--a", "1"],
    "hilb-window-apex-lift": ["hilb-window", "u7-4-apex.json", "--a", "1"],
    # no assignment and 36 nonfaces: the direct route sums chi_c by live
    # state, so every sub-result has a verdict
    "logconcavity-nonface-guard": ["logconcavity", "u9-6.json"],
    # the assignment fails the target invariant, so chi_c is summed directly
    # and the route says so
    "logconcavity-alpha-guard": ["logconcavity", "u7-4-apex.json", "--alpha",
                                 "u7-4-apex-alpha-not-apex.json"],
    # input errors: exit 2 with "input error: <where>: <message>" on stderr
    "error-complex-array": ["hilbert", "complex-array.json"],
    "error-malformed-json": ["hilbert", "malformed.json"],
    "error-missing-vertices": ["hilbert", "no-vertices.json"],
    "error-facets-string": ["hilbert", "facets-string.json"],
    "error-graph-repeated-label": ["chromatic", "graph-repeated-label.json"],
    "error-graph-unknown-key": ["chromatic", "graph-unknown-key.json"],
    "error-graph-missing-edges": ["chromatic", "graph-no-edges.json"],
    "error-graph-edges-string": ["chromatic", "graph-edges-string.json"],
    "error-graph-loop": ["chromatic", "graph-loop.json"],
    "error-graph-unknown-vertex": ["chromatic", "graph-unknown-vertex.json"],
    "error-graph-duplicate-edge": ["chromatic", "graph-duplicate-edge.json"],
    "error-alpha-object": ["verify-theorem", "square.json", "--alpha",
                           "alpha-object.json"],
    "error-alpha-size": ["verify-theorem", "square.json", "--alpha",
                         "square-alpha-too-big.json"],
    "error-empty-nonface": ["verify-ac", "square.json", "--nonface", ","],
    "error-no-alpha-source": ["verify-theorem", "square.json"],
}

DIGESTS = {
    "chromatic-graph":
        "45359f2c3f466b4669da6edcc64dc1f90dbb3741272f44789e0fa4504b3344f4",
    "chromatic-k8":
        "744a95e26ad65958d3b6ed3d79b42efb619c1fe75ec04204f56ea43d0952e49f",
    "chromatic-wide-nonfaces":
        "d0422dc5eaada9f1e45c46e170f1a01e689e39acf6f766d79a51adbb26b2a91d",
    "cyclcheck-c-2":
        "40222ee73300269b9b4caccb97d3df9f698f6b98b3c4172c72b23e53b41afacb",
    "cyclcheck-c0":
        "9fb58e3829def4414a87371bebd7155747c94484480a1c7102418b6d766fae3b",
    "cyclo-check":
        "126fd41912412e6fed042e269cf485ab70044fbedb29c48e81d0dd9288c118df",
    "cyclo-check-four-primes-free":
        "e920804f128026b64de705f6d0ef2434d8769af46bfad9663373c9ab441cc227",
    "cyclo-check-four-primes-torsion":
        "d7b462df144d055ebe8ff49a3d616b758570f35aca226af7451230a44397f1be",
    "cyclo-check-zero":
        "b6389dcce79c2871a4254ecfaf97374d43c9c6d61cbc40d5125c0aa98f56733c",
    "cyclo-poly-1":
        "9ea6f632384439fcb2b23bf8f88df51f9f24ae22d9eb9b6f6beb993a6dfae668",
    "cyclo-poly-105":
        "5e0a9860506925b61a27574443f7daff1ab7fd59c3d81b700a5079fffe09d841",
    "cyclo-poly-2310":
        "be15521b1cef11bcfbc3ef5bb3afb3d5739284793c762e3c106f37478e9a07cf",
    "dehn-sommerville-fail":
        "7fde2e1f032b87e7ee7d4fa66e0c18867a8bd6652e3cb24dd0e6a0283c7245d7",
    "dehn-sommerville-pass":
        "9f9fee735495ae1628acd12f5efcd8d86a51387c9c3540153866ed006b0d2449",
    "dehn-sommerville-pretty":
        "67992928bb0b4a6614e3cc2def9b2abcd8d45e9e9495e9df82df09440b3c0a6e",
    "error-alpha-not-antichain":
        "ac4d5379c1c851542552d392624837c4a93145513c929014a0bfe77b68552da4",
    "error-alpha-object":
        "3db5391640d29e7cc11e4ef51abe1c04a6286efc33cd9242712b9b18fe8a2c80",
    "error-alpha-repeated-label":
        "d736b9855ea57ee8242c56df441fc010a78161d97fa0b96d8c4107822310953b",
    "error-alpha-size":
        "ca26f983ae769f54147749434d920c605a3327a97dc4286b3b04267d6be9b7d4",
    "error-complex-array":
        "b55cc22d27262e23a5fc0b6f438136a56cd05b50d360482dcfdb9341d4a6ddc8",
    "error-empty-nonface":
        "71593143807fa0e6d3ca1f4521cf2264a6dfa234fca7d8076fa28c9184057797",
    "error-facet-label":
        "e5f89786e409155ac8797a3b3f2c4a1aea8e79b6ca6430dc7a54f9ca8cf8c78a",
    "error-facets-string":
        "8579352165e101ef61c62d92d074df5f8a249f1e2f081cf9e78a1c3799dda460",
    "error-generator-label":
        "bbd1c84ffc85b58c29db749f35196429f367cdeb48f672c64a0f1c00a4647b5d",
    "error-graph-duplicate-edge":
        "0b549403ed8e1eed2cc8de625ea02b9a3dd7eb2ce341db6122cca320b279ba1a",
    "error-graph-edges-string":
        "5f20b71718f544db84d57c740f21f4795320bb6cd2325b337a0095098d52e53c",
    "error-graph-loop":
        "e1d1894fdbc6e6b0aefaa8a8cb247836b6eede8916ec076789298e70eec8254e",
    "error-graph-missing-edges":
        "54975a6fa1224f96b81aa3a8c273b2116f6062bdf789aed17dcb644fe5830e86",
    "error-graph-repeated-label":
        "56ccc0062c652a8f5ae6585d9d46cafb7200b588d35dec829e262a1ee28428d5",
    "error-graph-unknown-key":
        "ed0aa54681ed41326a916b14ac6c0b762db3a36a768d6101d395281cf8de0c0a",
    "error-graph-unknown-vertex":
        "58ed79a89930f2d5b4e204d202b813c7df7b895bf21e3b36bee3539e0f422e4c",
    "error-malformed-json":
        "91830a54960462b699fc2cccb223aa13ff20136a5a35981e213ceae268905642",
    "error-missing-vertices":
        "e317af021e2eb9d1cb9b188304842a6ff0c066f76f37e0f4591d3002db460093",
    "error-negative-expand":
        "5c50a1d8b8d9c443c6487ef79d226179e694074126183733762ef56a3b37b767",
    "error-negative-q":
        "5395183ac5e78a83cc1ed5fbb5b62840d1deb41c6079184470b0d0ec67225217",
    "error-no-alpha-source":
        "b561e0f5ed67e14832dcdde3698ebb4ececc9adbf0d9b12805de472725a71866",
    "error-nonface-label":
        "2ee701a2837f412ef6fb36ec133d35dcc1a64666b78e8feeb345dbcd51f1ef7d",
    "error-not-antichain":
        "38b97ba30dacc438b420ff20f8ae5a27dcb972127e955049bc0387c3a3e90919",
    "error-repeated-facet-label":
        "04b06769c85ae44cf7fc51d4e8744a221cbd8f4f11979c4f5bfe768b8364bbd4",
    "error-repeated-nonface-label":
        "2001aff785a6edbb3ad2154be2f27c0ffa9a7fbc131a441e9eaed003475d1ca2",
    "error-repeated-sigma-logconcavity":
        "715b22e0acd31e1aa68a7ee40a2e3d081f7d74ae06456ed1a6d58bf085dfc9f9",
    "error-repeated-sigma-reciprocity":
        "715b22e0acd31e1aa68a7ee40a2e3d081f7d74ae06456ed1a6d58bf085dfc9f9",
    "error-repeated-sigma-verify":
        "715b22e0acd31e1aa68a7ee40a2e3d081f7d74ae06456ed1a6d58bf085dfc9f9",
    "error-repeated-vertex":
        "2f05f69ea4f9d77105d59ca84de6bbe1cc97c1567947138f18dcaaac5d2d2318",
    "guard-count-digits":
        "2753bd28fd71b27d30060f0230752b473241910b694ec39a11133775d335bb8c",
    "guard-count-digits-pretty":
        "2753bd28fd71b27d30060f0230752b473241910b694ec39a11133775d335bb8c",
    "guard-cyclotomic-index":
        "2b17b8396364bdaa142031570ff4946e4232f83bb0fd8d68013faa93062cf760",
    "guard-matrix-size":
        "cd4aba1edf7b0545d192aa6db261fd2257e5fa9afce2b02818ff5352efb14f71",
    "guard-model-size":
        "17ff9930885de000a8729ca4d1a27c4a840ab45c6d8bb5ddda74304250d02b6a",
    "guard-monomial-degree":
        "06c7ea1e7abdf2e9b1a61f115d959d73e8bc90c0b825786d1bac81dfb29145fa",
    "guard-uniform-vertices":
        "bbf1412b73f24cad8b6c590e8db4048efafdd5b7b531efb0acb05833c76ab8df",
    "guard-vertices-disjoint-lift":
        "13d123cfd5624b9b6bc9655004c619d25abf4accf9af8feefa81610d28f9b4ec",
    "guard-vertices-facets":
        "66679624d8f931232e198cfdfc31475126a60244b459e3ea3a7019a5d2a3d0a5",
    "guard-vertices-nonfaces-hilbert":
        "13d123cfd5624b9b6bc9655004c619d25abf4accf9af8feefa81610d28f9b4ec",
    "guard-vertices-nonfaces-homology":
        "13d123cfd5624b9b6bc9655004c619d25abf4accf9af8feefa81610d28f9b4ec",
    "hilb-window-apex-lift":
        "ae771c6d8997572d0ef204a80ca22f73c55fe7f25bbb7866b1f98900edb8c602",
    "hilb-window-disjoint-pair":
        "0ed062e4c19acfc091a5d541abaf88c66fca94ab4456b8b72597f37cf17a9b00",
    "hilb-window-negative-a":
        "41123bc6c6ebf949ee4e8eabf330926b29997839290a9f1da885570347359baf",
    "hilbert-expand":
        "acab8a0fb44d62379e97998f4e8df4f330a4feddfebe0d021ac8122a0dfe19da",
    "hilbert-expand-degree-limit":
        "af5564bc8c4f70a774a7d8000494deba70f5be54b8b087028fdce93170a25945",
    "hilbert-u9-6":
        "38d7beb90785f6ccade26552f4d08a29d26ffb8914202b30813efbd59027fac7",
    "homology":
        "f4edc6222e03a59a455c1bf2a437ce5311df3b02bb6e20d4c61957b2541f6f0d",
    "homology-cross-polytope-11":
        "a239ed7fed29c84e348ea6dbdd5e31c356b76e8aa6be54fcf6b5a935187870cb",
    "lift-apex-26-vertices":
        "b8e8c345a13f8af723cc9a702408d91fc8873c11d18c25e74474836f04cd3714",
    "lift-apex-free-vertex":
        "a8bd641ecea024512e28925c220f66467c822815782f431a522d574d935b6452",
    "lift-apex-mid-order":
        "19786892d6a57591dbe3ddccbd274393720033c2d870109a51f7299090aee1ae",
    "lift-apex-simplex-pretty":
        "210b0c947afa7b39f47fe9634f3aa1f9f9bf511667a216e45e19f69f3d0c7b06",
    "lift-disjoint":
        "489609cfd255b7debc88bc64a2ce5b38557435d4076691fbb67c7fa45eb9e419",
    "lift-disjoint-mid-order":
        "ab128c1edee87e67bbf34fc6b149b4a02955dc8b640fb3a6fdaf89e30c62e3c3",
    "lift-disjoint-octahedron":
        "c3e2ca7c6ad5ef825a386ed38fdeebe875fc3a066b78647bc65caf52e68b9f2b",
    "lift-disjoint-pretty":
        "e1e9cd726e9aae9228bd4a40b734bcefa49e7b90a54fff6e5e70968bc389154f",
    "logconcavity":
        "e249f0722ccbe48ed48082765360237bfda564fa1c22ea03315c1649cad0b1ff",
    "logconcavity-alpha-guard":
        "bdd293fa1e0cb6971a7851f3d2e35e78642beac9a9f40b74a1d0173dc304d878",
    "logconcavity-identity":
        "dd57981f886db75d9db2dca46620192102e6bc7ae09ff35ee5f54d5d465eabe8",
    "logconcavity-state-pass":
        "0daabdc5e7365b41cb77790a30d33b74e65f20647a120f172078b92e59b9873d",
    "logconcavity-nonface-guard":
        "fb73d05e0c44fe739015267830522954465000317a193db8644d45fac8fb56fd",
    "oracle-count":
        "0b44e116afd3f50ce80f3f9e96ffa191f0e85077fd2651b7123885d40f3b5d51",
    "oracle-count-free-tail":
        "dbcc4669a1987dc4dfb541fd5b8b7bd3e41621acead58aa8468ff5228898f8a9",
    "oracle-count-q0":
        "450322c047c809c718eacdf733e477c0efcc525d70b7a4330bd180e5d738c356",
    "reciprocity-search":
        "e4a98506bef29b63e4511975d29bc7d53f7735597cd73d11143ad124efd470c2",
    "sweep-42":
        "6b48bca13354a3d60ed77ef005e82c2e451d3b2f9ebf84eb3a8ec40d473073fd",
    "uniform-apex":
        "0ed07619665bad9cf051202e5f357299fc31c0a0f906659cd9322df38caf1684",
    "uniform-disjoint":
        "26e9b04462fba65b611c79777c3a9725aac698b6b98117243791af0da8bf8a4a",
    "verify-ac-merge":
        "6f5fce1b5c243a7eaec79753b6d93677e402c7476d7c48389bb90af9767b664a",
    "verify-ac-merge-mid-order":
        "e45084f1902d252c96a4668d864a21ce0d879ffd34de32e316fb670e00978a7e",
    "verify-ac-remove":
        "cf87d0f416fd2fc5142ddc80d612ec687f510beebebb05851acd7c3aebc938c0",
    "verify-ac-remove-mid-order":
        "8aa0d79d1dd3521821c9d06af7005346082e560c52f3bcbe9c0a54aa49e6068e",
    "verify-cc-apex-lift":
        "f24262cfa9a42f177bec9e73a84086ba4e4426b6565add7ab815094f42b8919e",
    "verify-cc-disjoint-pair":
        "030836012b81b76f31b6f819d723e386c32f0e59d219f13ea64bbd56dd203601",
    "verify-cc-negative-a":
        "41123bc6c6ebf949ee4e8eabf330926b29997839290a9f1da885570347359baf",
    "verify-cc-singleton":
        "9d2ae2bc70df311114e5615d4b36b229e1a9faf8bc58f8a9e3745d63dd7777e9",
    "verify-theorem-search":
        "b6838093c4ab612ad513f82685abeb3322a284ade8816944b3e570792a70e463",
    "verify-theorem-search-pretty":
        "cd3722d7846ea28b7bb2a658b416dfd2b68ad25d6f57dc6b8c8cd806b700943b",
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, payload in FILES.items():
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def digest(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_is_unchanged(name, inputs, capsys):
    assert digest(capsys, RUNS[name]) == DIGESTS[name]
