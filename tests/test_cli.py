import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoarr import cli
from twoarr.cli import UsageError, build_parser, main
from twoarr.arrangement import parse_arrangement
from twoarr.restriction import serialize_arrangement
from twoarr.fixtures import fixture_text, load_fixture
from conftest import braid, generic_hyperplanes, generic_lines


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


ODD_RANK = {
    "dim": 4,
    "subspaces": [
        {"name": "H1", "forms": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
        {"name": "H2", "forms": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
        {"name": "H3", "forms": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]},
    ],
}


def test_validate_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.arr"
    path.write_text(json.dumps(ODD_RANK))
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


def test_non_ascii_zero_denominator_is_a_parse_error(tmp_path, capsys):
    document = json.loads(fixture_text("example22-B"))
    document["subspaces"][0]["complex"]["z"][0][0] = "1/\u0660"
    path = tmp_path / "zero.arr"
    path.write_text(json.dumps(document))
    assert run(capsys, "validate", str(path)) == (3, "", "parse error: subspace #1: zero denominator in '1/\u0660'\n")


ZERO_PAIR = [["0", "0"], ["0", "0"]]
FORM = ["1", "0", "0", "0"]
H1 = {"name": "H1"}
PAIR = {"forms": [FORM, ["0", "1", "0", "0"]]}


@pytest.mark.parametrize(
    "record, message",
    [
        ({**H1, "complex": {"z": ZERO_PAIR, "zbar": ZERO_PAIR}}, "complex form has no nonzero coefficient"),
        ({**H1, "forms": [FORM]}, "'forms' must list exactly two forms"),
        ({**H1, "forms": [FORM] * 3}, "'forms' must list exactly two forms"),
        # wrong in two ways: each list is checked before it is parsed, so the first form's rational is reported
        ({**H1, "forms": [["x", "0", "0", "0"], ["0"]]}, "malformed rational 'x'"),
        ({**H1, "complex": {"z": [["x", "0"], ["0"]], "zbar": ZERO_PAIR}}, "malformed rational 'x'"),
        (["H1", PAIR["forms"]], "must be an object"),
        (PAIR, "missing or empty 'name'"),
        ({"name": "", **PAIR}, "missing or empty 'name'"),
        (H1, "needs exactly one of 'forms' or 'complex'"),
        ({**H1, **PAIR, "complex": {"z": ZERO_PAIR, "zbar": ZERO_PAIR}}, "needs exactly one of 'forms' or 'complex'"),
        ({**H1, "complex": [ZERO_PAIR, ZERO_PAIR]}, "complex block must be an object"),
        ({**H1, "complex": {"zbar": ZERO_PAIR}}, "complex block needs both 'z' and 'zbar'"),
        ({**H1, "complex": {"z": ZERO_PAIR}}, "complex block needs both 'z' and 'zbar'"),
        ({**H1, "complex": {"z": [["1"], ["0", "0"]], "zbar": ZERO_PAIR}}, "'z' entries must be [re, im] pairs"),
        ({**H1, "forms": [FORM, ["0", "1", "0"]]}, "each form needs 4 coefficients"),
        ({**H1, **PAIR, "extra": 1}, "unknown field(s) ['extra']"),
        ({**H1, "complex": {"z": ZERO_PAIR, "zbar": ZERO_PAIR, "w": 1}}, "unknown field(s) ['w']"),
    ],
    ids=[
        "zero-complex-form", "one-form", "three-forms", "bad-rational-before-short-form",
        "bad-rational-before-short-pair", "not-an-object", "no-name", "empty-name", "neither-forms-nor-complex",
        "both-forms-and-complex", "complex-not-an-object", "complex-without-z", "complex-without-zbar",
        "complex-pair-of-one", "short-form", "unknown-record-field", "unknown-complex-field",
    ],
)
def test_subspace_record_rejections_exit_3(tmp_path, capsys, record, message):
    path = tmp_path / "bad.arr"
    path.write_text(json.dumps({"dim": 4, "subspaces": [record]}))
    assert run(capsys, "validate", str(path)) == (3, "", f"parse error: subspace #1: {message}\n")


@pytest.mark.parametrize(
    "document, message",
    [
        ([{**H1, **PAIR}], "top level must be an object"),
        ({"subspaces": [{**H1, **PAIR}]}, "document needs 'dim' and 'subspaces'"),
        ({"dim": 4}, "document needs 'dim' and 'subspaces'"),
        ({"dim": 3, "subspaces": [{**H1, **PAIR}]}, "'dim' must be a positive even integer, got 3"),
        ({"dim": "4", "subspaces": [{**H1, **PAIR}]}, "'dim' must be a positive even integer, got '4'"),
        ({"dim": 4, "subspaces": []}, "'subspaces' must be a non-empty list"),
        ({"dim": 4, "subspaces": [{**H1, **PAIR}], "extra": 1}, "document: unknown field(s) ['extra']"),
        ({"dim": 4, "subspaces": [{**H1, **PAIR}, {"name": "H3", **PAIR}, {"name": "H3", **PAIR}]},
         "subspace #3: duplicate name 'H3'"),
        # names are checked record by record, so a repeat is reported before a later record's own error
        ({"dim": 4, "subspaces": [{**H1, **PAIR}, {**H1, **PAIR}, H1]}, "subspace #2: duplicate name 'H1'"),
    ],
    ids=[
        "top-level-list", "no-dim", "no-subspaces", "odd-dim", "string-dim", "no-records", "unknown-document-field",
        "duplicate-name", "duplicate-name-before-later-record",
    ],
)
def test_document_rejections_exit_3(tmp_path, capsys, document, message):
    path = tmp_path / "bad.arr"
    path.write_text(json.dumps(document))
    assert run(capsys, "validate", str(path)) == (3, "", f"parse error: {message}\n")


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "kappa", "/nonexistent/nope.arr")
    assert code == 3


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def test_file_that_is_not_utf8_names_itself(tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_bytes(b"\xff\xfe")
    assert run(capsys, "validate", str(bad)) == (3, "", f"error: cannot read {bad}: {NOT_UTF8}\n")


def test_compare_names_its_second_file_when_that_one_is_not_utf8(fx, tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_bytes(b"\xff\xfe")
    assert run(capsys, "compare", fx("example22-B"), str(bad)) == (3, "", f"error: cannot read {bad}: {NOT_UTF8}\n")


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
    code, out, err = run(capsys, "linking", fx("thm32-Bhat"))
    assert code == 3
    assert (out, err) == ("", "error: linking signs need an arrangement in R^4, got R^6\n")


def test_out_of_memory_exits_4_with_one_line(fx, capsys, monkeypatch):
    """A MemoryError ends in exit 4 and one line on stderr, not in a traceback."""
    from twoarr import invariants

    def exhausted(arr):
        raise MemoryError

    monkeypatch.setattr(invariants, "kappa", exhausted)
    assert run(capsys, "kappa", fx("example22-Bprime"), "--format", "json") == (4, "", "error: out of memory\n")


def test_betti_with_order(fx, capsys):
    code, out, _ = run(capsys, "betti", fx("example22-B"), "--order", "4,3,2,1")
    assert code == 0
    assert "betti: 1 4 3" in out
    code, _, _ = run(capsys, "betti", fx("example22-B"), "--order", "1,1,2,3")
    assert code == 3


def test_betti_bad_order_message(fx, capsys):
    code, out, err = run(capsys, "betti", fx("thm32-Bhat"), "--order", "5,5,4,3,2")
    assert (code, out, err) == (3, "", "error: order must be a permutation of 1..n\n")


def test_betti_empty_order_is_a_bad_order(fx, capsys):
    code, out, err = run(capsys, "betti", fx("example22-B"), "--order", "")
    assert (code, out) == (3, "")
    assert err.startswith("error: bad --order: ")
    assert run(capsys, "betti", fx("example22-B"), "--order", "4,3,2,1,") == (code, out, err)


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONDONTWRITEBYTECODE": "1"}


# the environment of a script run: this source tree, compiled afresh as in the benchmark
SCRIPT_ENV = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}


def run_under_ascii_locale(*argv):
    env = {**SCRIPT_ENV, **ASCII_LOCALE}
    return subprocess.run([sys.executable, "-m", "twoarr.cli", *argv], env=env, capture_output=True, timeout=60)


def run_into_closed_pipe(*argv):
    """(exit code, stderr) of a CLI process whose stdout is a pipe with no reader left."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twoarr.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=SCRIPT_ENV, timeout=60
        )
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "example22-B"],  # fits the buffer: the flush at shutdown hits the pipe
        ["compare", "example22-B", "example22-Bprime"],  # the same, where exit 10 was due
        ["circuits", "lines20"],  # 1140 circuits overflow the buffer: a print inside main hits it
    ],
    ids=["validate", "compare", "circuits-lines20"],
)
def test_closed_stdout_exits_1_with_nothing_on_stderr(argv, fx, tmp_path):
    lines20 = tmp_path / "lines20.arr"
    lines20.write_text(serialize_arrangement(generic_lines(20, 3)))
    files = {"lines20": str(lines20)}
    argv = [argv[0]] + [files.get(a) or fx(a) for a in argv[1:]]
    assert run_into_closed_pipe(*argv) == (1, b"")


def run_script(*argv):
    """(exit code, stdout, stderr) of `python -m twoarr.cli *argv`, which ends by `os._exit`."""
    proc = subprocess.run([sys.executable, "-m", "twoarr.cli", *argv], env=SCRIPT_ENV, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.mark.parametrize(
    "argv, code, err_line",
    [
        (["validate", "example22-B"], 0, None),
        (["kappa", "odd-rank"], 2, "violation: odd-rank subset={1,3} (subset {1, 3} has rank 3 (odd))"),
        (["validate", "garbage"], 3, "parse error: invalid JSON: Expecting property name enclosed in double quotes"),
        (["compare", "example22-B", "example22-Bprime"], 10, None),
    ],
    ids=["0", "2-validation", "3-parse", "10-compare"],
)
def test_script_exit_codes_and_output_match_main(argv, code, err_line, fx, tmp_path, capsys):
    (tmp_path / "odd-rank.arr").write_text(json.dumps(ODD_RANK))
    (tmp_path / "garbage.arr").write_text("{]")
    files = {name: str(tmp_path / f"{name}.arr") for name in ("odd-rank", "garbage")}
    argv = [argv[0]] + [files.get(a) or fx(a) for a in argv[1:]]
    expected = run(capsys, *argv)
    assert expected[0] == code
    assert run_script(*argv) == expected
    if err_line is not None:
        assert any(line.startswith(err_line) for line in expected[2].splitlines())


def test_script_writes_all_of_a_long_json_document_through_a_pipe(tmp_path, capsys):
    """kappa's JSON on seven generic lines is more than a pipe buffer holds; the flush
    before `os._exit` writes all of it."""
    path = tmp_path / "lines7.arr"
    path.write_text(serialize_arrangement(generic_lines(7, 3)))
    expected = run(capsys, "kappa", str(path), "--format", "json")
    assert len(expected[1].encode()) == 107_805
    assert run_script("kappa", str(path), "--format", "json") == expected


def test_kappa_on_thirty_lines_runs_in_one_gib(tmp_path):
    """kappa's rank reads the products as sparse rows. The dense Gram of 30 lines,
    406 x 406 vectors over C(30, 4) = 27 405 monomials, would not fit in the cap."""
    path = tmp_path / "lines30-conj.arr"
    path.write_text(serialize_arrangement(generic_lines(30, 3, conjugate_last=True)))
    capped = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); from twoarr.cli import run; run()"
    proc = subprocess.run([sys.executable, "-c", capped, "kappa", str(path)], env=SCRIPT_ENV, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"basis size: 406\n" in proc.stdout


def hat_file(tmp_path, name):
    """The fixture `name` with its first member renamed "Ĥ1", written as UTF-8."""
    doc = json.loads(fixture_text(name))
    doc["subspaces"][0]["name"] = "Ĥ1"
    path = tmp_path / "hat.arr"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return str(path)


def test_utf8_file_is_read_under_an_ascii_locale(tmp_path):
    """Arrangement files are JSON text, so UTF-8 whatever the locale (RFC 8259, section 8.1)."""
    proc = run_under_ascii_locale("validate", hat_file(tmp_path, "example22-B"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[-1] == b"no violations"


def test_restrict_matches_a_utf8_label_under_an_ascii_locale(tmp_path, capsys):
    path = hat_file(tmp_path, "thm32-Bhat")
    expected = run(capsys, "restrict", path, "--index", "1")
    assert expected[0] == 0
    proc = run_under_ascii_locale("restrict", path, "--index", "Ĥ1".encode("utf-8"))
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected


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


@pytest.mark.parametrize(
    "index, message",
    [("0", "error: index 0 out of range 1..5\n"), ("-1", "error: no subspace named '-1'\n")],
)
def test_unknown_label_message_prints_bare(fx, capsys, index, message):
    code, out, err = run(capsys, "restrict", fx("thm32-Bhat"), "--index", index)
    assert (code, out, err) == (3, "", message)


def test_restrict_by_a_digit_label_and_by_a_full_width_index(fx, tmp_path, capsys):
    # "²".isdigit() holds but int("²") fails: the label must be looked up by name
    doc = json.loads(fixture_text("thm32-Bhat"))
    doc["subspaces"][2]["name"] = "²"
    path = tmp_path / "superscript.arr"
    path.write_text(json.dumps(doc))
    expected = run(capsys, "restrict", fx("thm32-Bhat"), "--index", "3")
    assert expected[0] == 0
    assert run(capsys, "restrict", str(path), "--index", "²") == expected
    assert run(capsys, "restrict", fx("thm32-Bhat"), "--index", "\uff13") == expected  # full-width 3


def _report(**fields):
    from twoarr.invariants import ComparisonReport

    base = {
        "matroids_equal": True,
        "betti": ((1, 4, 4), (1, 4, 4)),
        "ideal_ranks": ((0, 2, 4, 1), (0, 2, 4, 1)),
        "kappa_ranks": (2, 2),
        "triple_multisets": ((-1, 1), (-1, 1)),
        "differing": (),
    }
    return ComparisonReport(**{**base, **fields})


@pytest.mark.parametrize(
    "report, marked",
    [
        (_report(differing=("kappa-rank",)), ["kappa ranks"]),
        (_report(differing=("matroid", "triple-multiset")), ["matroids (labeled)", "triple multisets"]),
        (_report(matroids_equal=False, betti=((1, 4, 4), (1, 4, 5)), kappa_ranks=(0, 2)), []),
        (_report(triple_multisets=None, differing=("betti",)), ["betti"]),
    ],
    ids=["equal-pairs-one-named", "matroid-and-triples-named", "unequal-pairs-none-named", "no-triples"],
)
def test_compare_prints_the_rows_the_report_names(fx, capsys, monkeypatch, report, marked):
    """DIFFER marks and the exit code follow `differing` alone, never the pairs."""
    from twoarr import invariants

    monkeypatch.setattr(invariants, "compare", lambda a1, a2, permutation_search=False: report)
    code, out, _ = run(capsys, "compare", fx("example22-B"), fx("example22-B"))
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines if line.endswith("DIFFER")] == marked
    assert len(lines) == (6 if report.triple_multisets is not None else 5)
    assert lines[-1] == f"verdict: {report.verdict}"
    assert code == (10 if report.differing else 0)


def test_compare_exit_codes(fx, capsys):
    code, out, _ = run(capsys, "compare", fx("example22-B"), fx("example22-Bprime"))
    assert code == 10
    assert "verdict: DISTINGUISHED" in out
    code, out, _ = run(capsys, "compare", fx("example22-B"), fx("example22-B"))
    assert code == 0
    assert "verdict: OTHERWISE_UNRESOLVED" in out


def write_arrangement(tmp_path, name, arr):
    path = tmp_path / f"{name}.arr"
    path.write_text(serialize_arrangement(arr))
    return str(path)


def test_permutation_search_that_finds_no_relabeling_exits_10(tmp_path, capsys):
    a3 = write_arrangement(tmp_path, "a3", braid(3))
    planes = write_arrangement(tmp_path, "planes", generic_hyperplanes(6, 3, 3))
    code, out, err = run(capsys, "compare", a3, planes, "--permutation-search")
    assert (code, err) == (10, "")
    assert "matroids (up to relabeling): DIFFER" in out.splitlines()


def test_permutation_search_refuses_more_than_eight_subspaces(tmp_path, capsys):
    lines9 = write_arrangement(tmp_path, "lines9", generic_lines(9, 3))
    expected = (3, "", "error: permutation search is limited to n <= 8\n")
    assert run(capsys, "compare", lines9, lines9, "--permutation-search") == expected


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
    # NBC counts do not depend on the order, so --order builds no second complex
    assert calls == ([None] if order is None else [(5, 4, 3, 2, 1)])


def test_restrict_leaving_no_subspace_exits_3(tmp_path, capsys):
    path = tmp_path / "point.arr"
    path.write_text(json.dumps({"dim": 2, "subspaces": [{"name": "H1", "forms": [["1", "0"], ["0", "1"]]}]}))
    code, out, err = run(capsys, "restrict", str(path), "--index", "1")
    assert (code, out, err) == (3, "", "error: restricting to 'H1' leaves no subspace\n")


@pytest.mark.parametrize(
    "name, code, kinds",
    [
        ("example22-B", 2, {"pairwise-rank"}),
        ("example22-Bprime", 2, {"pairwise-rank"}),
        ("thm32-Bhat", 0, set()),
        ("thm32-Bhat-complex", 0, set()),
    ],
)
def test_restrict_output_validates_only_above_r4(fx, tmp_path, capsys, name, code, kinds):
    # in R^4 the other members meet the chosen one only at the origin, so the
    # restriction repeats a point of R^2 and is no valid arrangement file
    for index in range(1, load_fixture(name).n + 1):
        _, out, _ = run(capsys, "restrict", fx(name), "--index", str(index))
        path = tmp_path / f"{name}-{index}.arr"
        path.write_text(out)
        got, report, _ = run(capsys, "validate", str(path), "--format", "json")
        assert got == code
        assert {v["kind"] for v in json.loads(report)["violations"]} == kinds


# --- the parser: the one-verb plain reader against the full build -----------------

VALID = {
    "validate": ["F"],
    "lattice": ["F"],
    "circuits": ["F"],
    "betti": ["F", "--order", "2,1,3,4"],
    "present": ["F", "--mode", "complex", "--normalize-signs"],
    "kappa": ["F"],
    "linking": ["F"],
    "restrict": ["F", "--index", "2"],
    "compare": ["F", "G", "--permutation-search"],
}
# an option each verb accepts in abbreviated form, and its full form with =value
ABBREVIATED = {"betti": ["--ord", "1,2"], "present": ["--norm"], "restrict": ["--ind", "H1"], "compare": ["--perm"]}
EQUALS = {"betti": "--order=1,2", "present": "--mode=real", "restrict": "--index=H2"}


def parser_argvs() -> list[list[str]]:
    argvs = [[], ["frobnicate", "F"], ["--help"], ["-h"], ["--format", "json", "validate", "F"]]
    for verb, args in VALID.items():
        argvs += [
            [verb, *args],
            [verb, "-h"],
            [verb, *(a for a in args if a != "F")],
            [verb, *args, "--format", "xml"],
            [verb, *args, "extra"],
            [verb, *args, *ABBREVIATED.get(verb, ["--form", "json"])],
            [verb, *args, EQUALS.get(verb, "--format=json")],
        ]
    argvs.append(["present", "F", "--mode", "quaternion"])
    return argvs


def parse_outcome(parser, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(parser.parse_args(argv))
    except UsageError as e:
        return "usage", str(e)
    except SystemExit as e:
        return "exit", e.code, out.getvalue()


@pytest.mark.parametrize("argv", parser_argvs(), ids=" ".join)
def test_one_verb_parser_parses_like_the_full_parser(argv):
    """The plain reader, which reads only the specs of the verb in argv[0], parses an
    argv into the full parser's namespace or leaves it to that parser: help and every
    usage error included."""
    full = parse_outcome(build_parser(), argv)
    plain = cli._plain_args(argv)
    assert plain is None or ("namespace", vars(plain)) == full


# --- the plain path: argv spelled plainly is read without argparse, as argparse reads it

# every argv shape the benchmark workloads run
WORKLOAD_ARGVS = [
    *([verb, "F"] for verb in ("validate", "lattice", "circuits", "betti", "present", "kappa", "linking")),
    ["betti", "F", "--order", "5,4,3,2,1"],
    ["present", "F", "--mode", "complex"],
    ["restrict", "F", "--index", "H3"],
    ["compare", "F", "G"],
    *([verb, "F", "--format", "json"] for verb in ("validate", "lattice", "circuits", "betti", "present", "kappa", "linking")),
    ["compare", "F", "G", "--format", "json"],
]
# each verb's positionals, and its options with values argparse accepts (None: a flag)
POSITIONALS = {verb: ["F", "G"] if verb == "compare" else ["F"] for verb in VALID}
OPTIONS = {
    "betti": {"--order": ["2,1,3,4", "", "x"]},
    "present": {"--mode": ["real", "complex"], "--normalize-signs": None},
    "restrict": {"--index": ["H3", "2"]},
    "compare": {"--permutation-search": None},
}
HOSTILE = ["-h", "--help", "--", "-", "-1", "--form", "--format=json", "", "xml", "quaternion", "--order", "--index"]
TOKENS = sorted(
    {"F", "G", "--format", "text", "json", *HOSTILE}
    | {token for opts in OPTIONS.values() for option, values in opts.items() for token in [option, *(values or [])]}
)


@st.composite
def drawn_argvs(draw) -> tuple[list[str], bool]:
    """(argv, edited): a verb and any tokens (edited), or its plain argv, shuffled, perhaps edited."""
    verb = draw(st.sampled_from(list(VALID)))
    if draw(st.booleans()):
        return [verb, *draw(st.lists(st.sampled_from(TOKENS), max_size=6))], True
    options = {"--format": ["text", "json"], **OPTIONS.get(verb, {})}
    groups = [[p] for p in POSITIONALS[verb]]
    for option, values in options.items():
        if option == "--index" or draw(st.booleans()):  # restrict's --index is required
            groups.append([option] if values is None else [option, draw(st.sampled_from(values))])
    tokens = [t for group in draw(st.permutations(groups)) for t in group]
    kinds = st.sampled_from(["replace", "delete", "insert"])
    edits = draw(st.lists(st.tuples(kinds, st.integers(0, len(tokens)), st.sampled_from(TOKENS)), max_size=2))
    for kind, at, token in edits:
        if kind == "insert":
            tokens.insert(at, token)
        elif tokens:
            tokens[at % len(tokens) : at % len(tokens) + 1] = [token] if kind == "replace" else []
    return [verb, *tokens], bool(edits)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(drawn_argvs())
def test_plain_args_read_argv_as_argparse_does(drawn):
    argv, edited = drawn
    plain = cli._plain_args(argv)
    if plain is None:
        assert edited, argv
    else:
        assert vars(plain) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", WORKLOAD_ARGVS, ids=" ".join)
def test_workload_argv_takes_the_plain_path(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv, built",
    [
        (["validate", "FILE"], []),  # read without argparse
        (["--help"], list(cli.VERBS)),
        (["frobnicate"], list(cli.VERBS)),
        (["validate", "FILE", "--form", "json"], list(cli.VERBS)),
    ],
)
def test_only_a_fallback_run_builds_the_parser_with_every_verb(fx, capsys, monkeypatch, argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction, "add_parser", lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw)
    )
    with contextlib.suppress(SystemExit):
        main([fx("example22-B") if a == "FILE" else a for a in argv])
    capsys.readouterr()
    assert names == built


def raise_exit(code):
    """Stands in for `os._exit` in `cli.run`, which would end pytest itself."""
    raise SystemExit(code)


def test_run_reads_sys_argv(fx, capsys, monkeypatch):
    monkeypatch.setattr(cli.os, "_exit", raise_exit)
    monkeypatch.setattr(sys, "argv", ["twoarr", "circuits", fx("example22-B")])
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == 0
    assert capsys.readouterr().out.splitlines() == ["{1,2,3}", "{1,2,4}", "{1,3,4}", "{2,3,4}"]


def test_run_exits_with_the_code_of_its_one_main_call(fx, capsys, monkeypatch):
    calls = []
    real_main = cli.main

    def spy_main():
        calls.append(sys.argv[1])
        return real_main()

    monkeypatch.setattr(cli, "main", spy_main)
    monkeypatch.setattr(cli.os, "_exit", raise_exit)
    monkeypatch.setattr(sys, "argv", ["twoarr", "compare", fx("example22-B"), fx("example22-Bprime")])
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert calls == ["compare"]
    assert exit_.value.code == 10
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: DISTINGUISHED"


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_main_never_freezes_the_collector(verb, fx, capsys, monkeypatch):
    """Callers run main many times in one process; a freeze there would keep their garbage."""
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(verb))
    extra = {"restrict": ["--index", "1"], "compare": [fx("example22-Bprime")]}
    assert main([verb, fx("example22-B"), *extra.get(verb, [])]) in (0, 10)
    capsys.readouterr()
    assert freezes == []
