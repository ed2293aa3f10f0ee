"""File formats, canonical output, CLI exit codes and report determinism."""

import json

import pytest

from simpchrom.cli import main
from simpchrom.complexes import SimplicialComplex
from simpchrom.serialize import (InputError, alpha_from_data, complex_from_data,
                                 complex_to_data, graph_from_data)

SC = SimplicialComplex


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def square_data():
    return {"vertices": ["a", "b", "c", "d"],
            "minimal_nonfaces": [["a", "c"], ["b", "d"]]}


def test_complex_round_trip_via_facets():
    s = complex_from_data(square_data())
    data = complex_to_data(s)
    assert data == {"vertices": ["a", "b", "c", "d"],
                    "facets": [["a", "b"], ["a", "d"], ["b", "c"], ["c", "d"]]}
    assert complex_from_data(data) == s


def test_complex_from_data_errors():
    with pytest.raises(InputError, match="unknown keys"):
        complex_from_data({"vertices": [], "facets": [], "extra": 1})
    with pytest.raises(InputError, match="exactly one"):
        complex_from_data({"vertices": ["a"]})
    with pytest.raises(InputError, match="exactly one"):
        complex_from_data({"vertices": ["a"], "facets": [["a"]],
                           "minimal_nonfaces": []})
    with pytest.raises(InputError, match="list of strings"):
        complex_from_data({"vertices": [1], "facets": [[1]]})
    with pytest.raises(InputError, match="in no face"):
        complex_from_data({"vertices": ["a", "b"], "facets": [["a"]]})


def test_graph_and_alpha_parsing():
    g = graph_from_data({"graph_vertices": ["a", "b"], "edges": [["a", "b"]]})
    assert g.edges == (("a", "b"),)
    with pytest.raises(InputError, match="pairs"):
        graph_from_data({"graph_vertices": ["a"], "edges": [["a"]]})
    assign = alpha_from_data([{"sigma": ["a", "b"], "alpha": ["a"]}])
    assert assign.pairs[0] == (frozenset({"a", "b"}), frozenset({"a"}))
    with pytest.raises(InputError, match="sigma"):
        alpha_from_data([{"sigma": ["a", "b"]}])


def test_alpha_parsing_rejects_a_repeated_label():
    # as sets the pairs would be valid: the repeat must not vanish silently
    data = [{"sigma": ["a", "c", "c"], "alpha": ["a", "a"]},
            {"sigma": ["b", "d"], "alpha": ["b", "b"]}]
    with pytest.raises(InputError, match=r"^f\[0\]\.sigma: repeated label 'c'$"):
        alpha_from_data(data, "f")
    data[0]["sigma"] = ["a", "c"]
    with pytest.raises(InputError, match=r"^f\[0\]\.alpha: repeated label 'a'$"):
        alpha_from_data(data, "f")
    data[0]["alpha"] = ["a"]
    with pytest.raises(InputError, match=r"^f\[1\]\.alpha: repeated label 'b'$"):
        alpha_from_data(data, "f")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_chromatic(tmp_path, capsys):
    path = write(tmp_path, "sq.json", square_data())
    code, out = run_cli(capsys, "chromatic", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"] == "t^4 - 2*t^3 + t^2"
    assert payload["polynomial"]["coeffs"] == [0, 0, 1, -2, 1]
    assert payload["conventions"]["sign_convention"] == "direct_inclusion_exclusion"


def test_cli_chromatic_accepts_graph_files(tmp_path, capsys):
    labels = ["a", "b", "c", "d"]
    edges = [[labels[i], labels[j]] for i in range(4) for j in range(i + 1, 4)]
    path = write(tmp_path, "k4-edges.json",
                 {"graph_vertices": labels, "edges": edges})
    code, out = run_cli(capsys, "chromatic", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["pretty"] == "t^4 - 6*t^3 + 11*t^2 - 6*t"
    assert payload["conventions"]["input"] == "graph"


def test_cli_reports_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "sq.json", square_data())
    _, first = run_cli(capsys, "hilbert", path, "--expand", "5")
    _, second = run_cli(capsys, "hilbert", path, "--expand", "5")
    assert first == second


def test_cli_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"vertices": ["a"], "oops": []})
    assert main(["chromatic", bad]) == 2
    big = write(tmp_path, "big.json", {
        "vertices": [f"v{i:02d}" for i in range(30)],
        "facets": [[f"v{i:02d}" for i in range(30)]]})
    assert main(["chromatic", big]) == 3
    assert main(["chromatic", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_verify_theorem_search(tmp_path, capsys):
    tri = write(tmp_path, "tri.json",
                {"vertices": ["1", "2", "3"],
                 "minimal_nonfaces": [["1", "2", "3"]]})
    code, out = run_cli(capsys, "verify-theorem", tri, "--search")
    payload = json.loads(out)
    assert code == 0
    assert payload["report"]["verdict"] == "PASS"
    assert payload["report"]["details"]["check_b_h_form"] is False
    assert payload["alpha"] == [{"sigma": ["1", "2", "3"], "alpha": ["1", "2"]}]


def test_cli_verify_ac(tmp_path, capsys):
    path = write(tmp_path, "path.json",
                 {"vertices": ["1", "2", "3"],
                  "minimal_nonfaces": [["1", "2"], ["2", "3"]]})
    code, out = run_cli(capsys, "verify-ac", path, "--nonface", "1,2")
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "PASS"
    assert payload["conventions"]["contraction"] == "merge"
    code, out = run_cli(capsys, "verify-ac", path, "--nonface", "1,2",
                        "--convention", "remove")
    assert json.loads(out)["report"]["verdict"] == "FAIL"


def test_cli_cyclo_commands(capsys):
    code, out = run_cli(capsys, "cyclo-poly", "--n", "6")
    assert json.loads(out)["pretty"] == "x^2 - x + 1"
    code, out = run_cli(capsys, "cyclo-check", "--primes", "2,3", "--j", "1",
                        "--mode", "cycltop")
    payload = json.loads(out)
    assert code == 0
    assert payload["conventions"]["labeling"] == "one"
    assert payload["report"]["details"]["labeling"] == "one"
    assert payload["report"]["verdict"] == "PASS"
    code, out = run_cli(capsys, "cyclo-check", "--primes", "2,3", "--j", "1",
                        "--mode", "cyclcheck")
    assert json.loads(out)["report"]["verdict"] == "PASS"
    code, out = run_cli(capsys, "cyclo-check", "--primes", "2,3", "--j", "1",
                        "--mode", "cyclcheck", "--labeling", "zero")
    assert json.loads(out)["report"]["verdict"] == "FAIL"  # recorded experiment


def test_cli_cyclo_labeling_option(capsys):
    code, out = run_cli(capsys, "cyclo-check", "--primes", "2,3", "--j", "1",
                        "--mode", "cycltop", "--labeling", "zero")
    payload = json.loads(out)
    assert payload["report"]["details"]["labeling"] == "zero"
    assert payload["conventions"]["labeling"] == "zero"
    assert payload["report"]["verdict"] == "FAIL"


def test_cli_uniform_disjoint_lift_is_usage_error(capsys):
    # overlapping nonfaces cannot take the disjoint lift
    code = main(["uniform", "--n", "5", "--r", "3", "--lift", "disjoint"])
    capsys.readouterr()
    assert code == 2


def test_cli_lift_and_uniform(tmp_path, capsys):
    octa = write(tmp_path, "octa.json",
                 {"vertices": list("abcdef"),
                  "minimal_nonfaces": [["a", "c"], ["b", "d"], ["e", "f"]]})
    code, out = run_cli(capsys, "lift", octa, "--mode", "disjoint")
    payload = json.loads(out)
    assert len(payload["complex"]["vertices"]) == 9
    assert len(payload["alpha"]) == 3
    code, out = run_cli(capsys, "uniform", "--n", "4", "--r", "2")
    assert len(json.loads(out)["complex"]["facets"]) == 6


def test_cli_homology_and_reports(tmp_path, capsys):
    octa = write(tmp_path, "octa.json",
                 {"vertices": list("abcdef"),
                  "minimal_nonfaces": [["a", "c"], ["b", "d"], ["e", "f"]]})
    code, out = run_cli(capsys, "homology", octa)
    assert json.loads(out)["table"] == [
        {"degree": 0, "betti": 0, "torsion": []},
        {"degree": 1, "betti": 0, "torsion": []},
        {"degree": 2, "betti": 1, "torsion": []}]
    code, out = run_cli(capsys, "dehn-sommerville", octa)
    assert json.loads(out)["report"]["verdict"] == "PASS"
    code, out = run_cli(capsys, "logconcavity", octa)
    assert json.loads(out)["report"]["verdict"] == "PASS"


def test_cli_oracle_count(tmp_path, capsys):
    tri = write(tmp_path, "tri.json",
                {"vertices": ["1", "2", "3"],
                 "minimal_nonfaces": [["1", "2", "3"]]})
    code, out = run_cli(capsys, "oracle-count", tri, "--q", "3")
    assert code == 0 and json.loads(out)["count"] == 24


def test_cli_verify_cc_and_window(tmp_path, capsys):
    path = write(tmp_path, "path.json",
                 {"vertices": ["1", "2", "3"],
                  "minimal_nonfaces": [["1", "2"], ["2", "3"]]})
    code, out = run_cli(capsys, "verify-cc", path, "--a", "1")
    assert code == 0 and json.loads(out)["report"]["verdict"] == "PASS"
    code, out = run_cli(capsys, "hilb-window", path, "--a", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["report"]["verdict"] == "FAIL"
    assert payload["window"]["coeffs"] == [0, -2, 1]
    # failing precondition is a usage error, not a verdict
    sq = write(tmp_path, "sq.json", square_data())
    assert main(["hilb-window", sq, "--a", "1"]) == 2
    capsys.readouterr()


def test_cli_reciprocity_search(tmp_path, capsys):
    tri = write(tmp_path, "tri.json",
                {"vertices": ["1", "2", "3"],
                 "minimal_nonfaces": [["1", "2", "3"]]})
    code, out = run_cli(capsys, "reciprocity", tri, "--search")
    payload = json.loads(out)
    assert code == 0
    assert payload["report"]["verdict"] == "PASS"
    assert payload["report"]["details"]["sign"] == -1


def test_cli_pretty_mode(tmp_path, capsys):
    octa = write(tmp_path, "octa.json",
                 {"vertices": list("abcdef"),
                  "minimal_nonfaces": [["a", "c"], ["b", "d"], ["e", "f"]]})
    code, out = run_cli(capsys, "chromatic", octa, "--pretty")
    assert code == 0
    assert "polynomial" in out and "{" not in out


def test_cli_verify_theorem_search_not_found(tmp_path, capsys):
    # five pairwise-meeting edge nonfaces: no remove-one-element assignment
    k1 = write(tmp_path, "k1.json",
               {"vertices": ["a", "b", "c", "d", "e"],
                "facets": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
                           ["b", "e"]]})
    code, out = run_cli(capsys, "verify-theorem", k1, "--search")
    payload = json.loads(out)
    assert code == 0
    assert payload["search"] == "NOT_FOUND" and payload["alpha"] is None


def test_cli_lift_feeds_logconcavity(tmp_path, capsys):
    octa = write(tmp_path, "octa.json",
                 {"vertices": list("abcdef"),
                  "minimal_nonfaces": [["a", "c"], ["b", "d"], ["e", "f"]]})
    code, out = run_cli(capsys, "lift", octa, "--mode", "apex")
    payload = json.loads(out)
    lifted = write(tmp_path, "lifted.json", payload["complex"])
    alpha = write(tmp_path, "alpha.json", payload["alpha"])
    code, out = run_cli(capsys, "logconcavity", lifted, "--alpha", alpha)
    report = json.loads(out)["report"]
    assert report["details"]["chromatic_route"] == "identity"
    assert report["details"]["sub_results"]["chromatic"]["verdict"] == "PASS"


def test_cli_rejects_an_assignment_of_another_complex(tmp_path, capsys):
    # the sigma is not a minimal nonface of the square, so the identity route
    # would report the chromatic polynomial of some other complex
    square = write(tmp_path, "square.json", square_data())
    alpha = write(tmp_path, "alpha.json",
                  [{"sigma": ["q", "x", "y", "z"], "alpha": ["x", "y", "z"]}])
    for command in ("logconcavity", "verify-theorem"):
        assert main([command, square, "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: assignment sigmas differ from "
                                "the minimal nonfaces of S\n")


def test_cli_sweep_determinism(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["sweep", "--seed", "5", "--out", str(first)]) == 0
    assert main(["sweep", "--seed", "5", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "instance_id,seed,n,r,check_name,verdict,witness"
