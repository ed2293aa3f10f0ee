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
    # 25 vertices pass the vertex guard; the lifts' 26 do not
    "wide-lift.json": {"vertices": [f"v{i:02d}" for i in range(25)],
                       "minimal_nonfaces": [["v00", "v01"]]},
    # U(16,4): d_0..d_2 pass the guards, the 560 x 1820 d_3 does not
    "u16-4.json": {"vertices": [f"v{i:02d}" for i in range(16)],
                   "facets": [list(c) for c in combinations(
                       [f"v{i:02d}" for i in range(16)], 4)]},
}

RUNS = {
    "sweep-42": ["sweep", "--seed", "42"],
    "chromatic-graph": ["chromatic", "c5-graph.json"],
    "hilbert-expand": ["hilbert", "lonely.json", "--expand", "6"],
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
    "lift-apex-free-vertex": ["lift", "lonely.json", "--mode", "apex"],
    "lift-disjoint": ["lift", "square.json", "--mode", "disjoint"],
    "lift-disjoint-octahedron": ["lift", "octahedron.json", "--mode", "disjoint"],
    "lift-apex-mid-order": ["lift", "aqz.json", "--mode", "apex"],
    "lift-disjoint-mid-order": ["lift", "aqz.json", "--mode", "disjoint"],
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
    "error-facet-label": ["chromatic", "bad-facet-label.json"],
    "error-generator-label": ["chromatic", "bad-generator-label.json"],
    "error-not-antichain": ["chromatic", "not-antichain.json"],
    "error-repeated-vertex": ["chromatic", "repeated-vertex.json"],
    "guard-vertices-facets": ["chromatic", "wide-facets.json"],
    "guard-vertices-nonfaces": ["chromatic", "wide-nonfaces.json"],
    "guard-matrix-size": ["homology", "u16-4.json"],
    "guard-vertices-apex-lift": ["lift", "wide-lift.json", "--mode", "apex"],
    "guard-vertices-disjoint-lift": ["lift", "wide-lift.json", "--mode",
                                     "disjoint"],
    # e lies in no minimal nonface, so the count ends on a free tail
    "oracle-count-free-tail": ["oracle-count", "lonely.json", "--q", "3"],
    "oracle-count": ["oracle-count", "ac.json", "--q", "4"],
    "oracle-count-q0": ["oracle-count", "tri.json", "--q", "0"],
    "guard-model-size": ["oracle-count", "square.json", "--q", "101"],
    "error-negative-q": ["oracle-count", "square.json", "--q", "-1"],
}

DIGESTS = {
    "chromatic-graph":
        "45359f2c3f466b4669da6edcc64dc1f90dbb3741272f44789e0fa4504b3344f4",
    "cyclcheck-c-2":
        "b717a4f5e9597be9fb738836c0e813484b0516843d64146029df82bddeecd3aa",
    "cyclcheck-c0":
        "09e8abb119d15a903c508e41e15f050f19380e290fdb6ef6f3f37553ed8bdca0",
    "cyclo-check":
        "126fd41912412e6fed042e269cf485ab70044fbedb29c48e81d0dd9288c118df",
    "cyclo-check-four-primes-free":
        "e920804f128026b64de705f6d0ef2434d8769af46bfad9663373c9ab441cc227",
    "cyclo-check-four-primes-torsion":
        "d7b462df144d055ebe8ff49a3d616b758570f35aca226af7451230a44397f1be",
    "cyclo-check-zero":
        "b6389dcce79c2871a4254ecfaf97374d43c9c6d61cbc40d5125c0aa98f56733c",
    "error-alpha-not-antichain":
        "ac4d5379c1c851542552d392624837c4a93145513c929014a0bfe77b68552da4",
    "error-alpha-repeated-label":
        "d736b9855ea57ee8242c56df441fc010a78161d97fa0b96d8c4107822310953b",
    "error-facet-label":
        "e5f89786e409155ac8797a3b3f2c4a1aea8e79b6ca6430dc7a54f9ca8cf8c78a",
    "error-generator-label":
        "bbd1c84ffc85b58c29db749f35196429f367cdeb48f672c64a0f1c00a4647b5d",
    "error-negative-q":
        "5395183ac5e78a83cc1ed5fbb5b62840d1deb41c6079184470b0d0ec67225217",
    "error-nonface-label":
        "2ee701a2837f412ef6fb36ec133d35dcc1a64666b78e8feeb345dbcd51f1ef7d",
    "error-not-antichain":
        "38b97ba30dacc438b420ff20f8ae5a27dcb972127e955049bc0387c3a3e90919",
    "error-repeated-sigma-logconcavity":
        "715b22e0acd31e1aa68a7ee40a2e3d081f7d74ae06456ed1a6d58bf085dfc9f9",
    "error-repeated-sigma-reciprocity":
        "715b22e0acd31e1aa68a7ee40a2e3d081f7d74ae06456ed1a6d58bf085dfc9f9",
    "error-repeated-sigma-verify":
        "715b22e0acd31e1aa68a7ee40a2e3d081f7d74ae06456ed1a6d58bf085dfc9f9",
    "error-repeated-vertex":
        "2f05f69ea4f9d77105d59ca84de6bbe1cc97c1567947138f18dcaaac5d2d2318",
    "guard-matrix-size":
        "f97d2da3ca5ab5b43bae77585a299e1964d2eaf18cc34244bb4c9d3e14f89e63",
    "guard-model-size":
        "f06c702294cf7224bb159279ea56f89dc8d7e0641b7b17e5e5a2bd4d39cb35fa",
    "guard-vertices-apex-lift":
        "13d123cfd5624b9b6bc9655004c619d25abf4accf9af8feefa81610d28f9b4ec",
    "guard-vertices-disjoint-lift":
        "13d123cfd5624b9b6bc9655004c619d25abf4accf9af8feefa81610d28f9b4ec",
    "guard-vertices-facets":
        "66679624d8f931232e198cfdfc31475126a60244b459e3ea3a7019a5d2a3d0a5",
    "guard-vertices-nonfaces":
        "13d123cfd5624b9b6bc9655004c619d25abf4accf9af8feefa81610d28f9b4ec",
    "hilbert-expand":
        "acab8a0fb44d62379e97998f4e8df4f330a4feddfebe0d021ac8122a0dfe19da",
    "homology":
        "f4edc6222e03a59a455c1bf2a437ce5311df3b02bb6e20d4c61957b2541f6f0d",
    "lift-apex-free-vertex":
        "a8bd641ecea024512e28925c220f66467c822815782f431a522d574d935b6452",
    "lift-apex-mid-order":
        "19786892d6a57591dbe3ddccbd274393720033c2d870109a51f7299090aee1ae",
    "lift-disjoint":
        "489609cfd255b7debc88bc64a2ce5b38557435d4076691fbb67c7fa45eb9e419",
    "lift-disjoint-mid-order":
        "ab128c1edee87e67bbf34fc6b149b4a02955dc8b640fb3a6fdaf89e30c62e3c3",
    "lift-disjoint-octahedron":
        "c3e2ca7c6ad5ef825a386ed38fdeebe875fc3a066b78647bc65caf52e68b9f2b",
    "logconcavity":
        "e249f0722ccbe48ed48082765360237bfda564fa1c22ea03315c1649cad0b1ff",
    "logconcavity-identity":
        "dd57981f886db75d9db2dca46620192102e6bc7ae09ff35ee5f54d5d465eabe8",
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
    "verify-theorem-search":
        "b6838093c4ab612ad513f82685abeb3322a284ade8816944b3e570792a70e463",
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, payload in FILES.items():
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def digest(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_is_unchanged(name, inputs, capsys):
    assert digest(capsys, RUNS[name]) == DIGESTS[name]
