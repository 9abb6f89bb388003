import json

import pytest

from twoarr.cli import main
from twoarr.arrangement import parse_arrangement
from twoarr.fixtures import fixture_text


@pytest.fixture
def fx(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.arr"
        path.write_text(fixture_text(name))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(fx, capsys):
    code, out, _ = run(capsys, "validate", fx("example22-B"))
    assert code == 0
    assert "no violations" in out


def test_validate_failure_exit_2(tmp_path, capsys):
    bad = {
        "dim": 4,
        "subspaces": [
            {"name": "H1", "forms": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
            {"name": "H2", "forms": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
            {"name": "H3", "forms": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]},
        ],
    }
    path = tmp_path / "bad.arr"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "odd-rank" in out


def test_parse_error_exit_3(tmp_path, capsys):
    path = tmp_path / "garbage.arr"
    path.write_text("{]")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 3
    assert "parse error" in err


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.arr"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert err.startswith("parse error: ") and out == ""


def test_overlong_rational_is_a_parse_error(tmp_path, capsys, int_digit_limit):
    digits = "7" * (int_digit_limit + 700)
    document = json.loads(fixture_text("example22-B"))
    document["subspaces"][0]["complex"]["z"][0][0] = digits
    path = tmp_path / "long.arr"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert err.startswith("parse error: ") and out == ""


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "kappa", "/nonexistent/nope.arr")
    assert code == 3


def test_usage_error_exit_3(capsys):
    code, _, err = run(capsys, "restrict")
    assert code == 3


def test_present_text(fx, capsys):
    code, out, _ = run(capsys, "present", fx("example22-Bprime"))
    assert code == 0
    assert "relation {1,2,3}: +e12 -e13 +e23" in out
    assert "ideal ranks (degrees 1..4): 0 3 4 1" in out
    assert out.count("relation {") == 4


def test_present_complex_mode(fx, capsys):
    code, out, _ = run(capsys, "present", fx("example22-B"), "--mode", "complex")
    assert code == 0
    assert "+e12 -e14 +e24" in out


def test_present_complex_mode_mismatch(fx, capsys):
    code, _, err = run(capsys, "present", fx("example22-Bprime"), "--mode", "complex")
    assert code == 3


def test_present_normalized_signs(fx, capsys):
    code, out, _ = run(capsys, "present", fx("example22-Bprime"), "--normalize-signs")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("relation {"):
            assert ": +" in line


def test_present_json(fx, capsys):
    code, out, _ = run(capsys, "present", fx("example22-Bprime"), "--format", "json")
    doc = json.loads(out)
    assert doc["ideal_ranks"] == [0, 3, 4, 1]
    assert doc["relations"][1] == {
        "circuit": [1, 2, 4],
        "signs": [1, -1, -1],
        "element": "-e12 +e14 +e24",
    }


def test_kappa_text(fx, capsys):
    code, out, _ = run(capsys, "kappa", fx("example22-B"))
    assert code == 0 and "rank: 0" in out
    code, out, _ = run(capsys, "kappa", fx("example22-Bprime"))
    assert code == 0 and "rank: 2" in out and "gram:" in out


def test_kappa_json(fx, capsys):
    code, out, _ = run(capsys, "kappa", fx("example22-Bprime"), "--format", "json")
    doc = json.loads(out)["kappa"]
    assert doc["basis_size"] == 3
    assert doc["rank"] == 2
    assert doc["scalar"] is True
    assert len(doc["gram"]) == 3


def test_linking_text(fx, capsys):
    code, out, _ = run(capsys, "linking", fx("example22-Bprime"))
    assert code == 0
    assert "{1,2,4}: -1" in out
    assert "{1,2,3}: +1" in out


def test_linking_json(fx, capsys):
    code, out, _ = run(capsys, "linking", fx("example22-Bprime"), "--format", "json")
    doc = json.loads(out)["linking"]
    assert doc["pairwise"][1][3] == -1
    triples = {tuple(t["triple"]): t["sign"] for t in doc["triples"]}
    assert triples[(1, 3, 4)] == -1


def test_linking_dimension_guard(fx, capsys):
    code, _, err = run(capsys, "linking", fx("thm32-Bhat"))
    assert code == 3


def test_betti_with_order(fx, capsys):
    code, out, _ = run(capsys, "betti", fx("example22-B"), "--order", "4,3,2,1")
    assert code == 0
    assert "betti: 1 4 3" in out
    code, _, _ = run(capsys, "betti", fx("example22-B"), "--order", "1,1,2,3")
    assert code == 3


def test_lattice_and_circuits(fx, capsys):
    code, out, _ = run(capsys, "lattice", fx("example22-B"))
    assert code == 0
    assert "counts by rank: 1 4 1" in out
    code, out, _ = run(capsys, "circuits", fx("example22-B"))
    assert code == 0
    assert out.splitlines() == ["{1,2,3}", "{1,2,4}", "{1,3,4}", "{2,3,4}"]


def test_restrict_roundtrips_through_other_verbs(fx, tmp_path, capsys):
    code, out, _ = run(capsys, "restrict", fx("thm32-Bhat"), "--index", "H3")
    assert code == 0
    arr = parse_arrangement(out)
    assert arr.dim == 4 and arr.n == 4
    path = tmp_path / "restricted.arr"
    path.write_text(out)
    code, out2, _ = run(capsys, "kappa", str(path))
    assert code == 0 and "rank: 2" in out2
    for verb in ("validate", "lattice", "circuits", "betti", "present", "linking"):
        code, _, _ = run(capsys, verb, str(path))
        assert code == 0, verb


def test_compare_exit_codes(fx, capsys):
    code, out, _ = run(capsys, "compare", fx("example22-B"), fx("example22-Bprime"))
    assert code == 10
    assert "verdict: DISTINGUISHED" in out
    code, out, _ = run(capsys, "compare", fx("example22-B"), fx("example22-B"))
    assert code == 0
    assert "verdict: OTHERWISE_UNRESOLVED" in out


def test_compare_json(fx, capsys):
    code, out, _ = run(capsys, "compare", fx("example22-B"), fx("example22-Bprime"), "--format", "json")
    doc = json.loads(out)
    assert code == 10
    assert doc["verdict"] == "DISTINGUISHED"
    assert doc["kappa_ranks"] == [0, 2]


def test_output_is_deterministic(fx, capsys):
    first = run(capsys, "present", fx("example22-Bprime"), "--format", "json")
    second = run(capsys, "present", fx("example22-Bprime"), "--format", "json")
    assert first == second
    third = run(capsys, "linking", fx("example22-Bprime"))
    fourth = run(capsys, "linking", fx("example22-Bprime"))
    assert third == fourth


@pytest.mark.parametrize("order", [None, "5,4,3,2,1"])
def test_betti_enumerates_each_nbc_complex_once(fx, capsys, monkeypatch, order):
    from twoarr import matroid

    path = fx("thm32-Bhat")
    calls = []
    enumerate_nbc = matroid.nbc_sets
    monkeypatch.setattr(matroid, "nbc_sets", lambda a, o=None: calls.append(o) or enumerate_nbc(a, o))
    argv = ["betti", path] + (["--order", order] if order else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1:] == ["betti: 1 5 10 6", "whitney check: ok"]
    assert calls == ([None] if order is None else [(5, 4, 3, 2, 1), None])
