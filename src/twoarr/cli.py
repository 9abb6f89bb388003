"""Command-line front end.

Verbs: validate, lattice, circuits, betti, present, kappa, linking,
restrict, compare. Output is aligned text by default or a JSON document
with --format json. Exit codes: 0 success (or no difference found),
2 validation failure, 3 usage or parse error, 10 a distinguishing
invariant was found by compare.
"""

from __future__ import annotations

import argparse
import json
import sys

# Every verb and main's error handling need the arrangement module; each
# cmd_* imports the rest of what it runs, so a verb loads only its own code.
from .arrangement import (
    Arrangement,
    ParseError,
    UnknownLabel,
    ValidationError,
    ValidationReport,
    parse_arrangement,
    restrict,
    serialize_arrangement,
    validate,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we reserve 2
        raise UsageError(message)


def _fmt_set(elements) -> str:
    return "{" + ",".join(str(e) for e in elements) + "}"


def _sign_char(s: int) -> str:
    return {1: "+", -1: "-", 0: "."}[s]


def _read_arrangement(path: str) -> Arrangement:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    return parse_arrangement(text)


def _emit(args, lines: list[str], doc: dict) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


def _report_lines(report: ValidationReport) -> list[str]:
    if report.ok:
        return ["no violations"]
    return [f"violation: {v.kind} subset={_fmt_set(v.subset)} ({v.detail})" for v in report.violations]


def _report_doc(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "subset": list(v.subset), "detail": v.detail}
            for v in report.violations
        ],
    }


def cmd_validate(args) -> int:
    try:
        arr = _read_arrangement(args.file)
    except ValidationError as e:
        _emit(args, _report_lines(e.report), _report_doc(e.report))
        return 2
    report = validate(arr)
    lines = [f"arrangement: {arr.n} subspaces in dimension {arr.dim}"] + _report_lines(report)
    _emit(args, lines, _report_doc(report))
    return 0


def cmd_lattice(args) -> int:
    from .matroid import flats

    arr = _read_arrangement(args.file)
    lattice = flats(arr)
    lines = []
    doc_flats = []
    for group in lattice.flats_by_rank:
        lines.append(
            f"rank {group[0].rank}: " + " ".join(_fmt_set(f.elements) for f in group)
        )
        doc_flats += [{"rank": f.rank, "elements": list(f.elements)} for f in group]
    counts = [len(g) for g in lattice.flats_by_rank]
    lines.append("counts by rank: " + " ".join(str(c) for c in counts))
    _emit(args, lines, {"flats": doc_flats, "counts": counts})
    return 0


def cmd_circuits(args) -> int:
    from .matroid import circuits

    arr = _read_arrangement(args.file)
    cs = circuits(arr)
    lines = [_fmt_set(c) for c in cs] or ["no circuits"]
    _emit(args, lines, {"circuits": [list(c) for c in cs]})
    return 0


def cmd_betti(args) -> int:
    from .matroid import nbc_sets, whitney_numbers

    arr = _read_arrangement(args.file)
    order = None
    if args.order:
        try:
            order = tuple(int(x) for x in args.order.split(","))
        except ValueError as e:
            raise UsageError(f"bad --order: {e}") from e
    try:
        complex_ = nbc_sets(arr, order)
    except ValueError as e:
        raise UsageError(str(e)) from e
    # the Betti numbers are the counts of the default-order complex
    betti = (complex_ if order is None else nbc_sets(arr)).counts
    whitney_ok = whitney_numbers(arr) == betti
    lines = [
        "nbc sets: " + " ".join(_fmt_set(s) for s in complex_.all_sets()),
        "betti: " + " ".join(str(b) for b in betti),
        "whitney check: " + ("ok" if whitney_ok else "FAILED"),
    ]
    doc = {
        "nbc": [list(s) for s in complex_.all_sets()],
        "betti": list(betti),
        "whitney_ok": whitney_ok,
    }
    _emit(args, lines, doc)
    return 0


def cmd_present(args) -> int:
    from .presentation import full_presentation, ideal_rank_profile, normalize_signs

    arr = _read_arrangement(args.file)
    pres = full_presentation(arr, args.mode)
    if args.normalize_signs:
        pres = normalize_signs(pres)
    profile = ideal_rank_profile(pres)
    lines = [f"mode: {pres.mode}"]
    for rel in pres.relations:
        signs = " ".join(_sign_char(s) for s in rel.signs)
        lines.append(f"relation {_fmt_set(rel.circuit)}: {rel.element}   [signs: {signs}]")
    lines.append(
        f"ideal ranks (degrees 1..{pres.n}): " + " ".join(str(r) for r in profile)
    )
    doc = {
        "mode": pres.mode,
        "relations": [
            {"circuit": list(r.circuit), "signs": list(r.signs), "element": str(r.element)}
            for r in pres.relations
        ],
        "ideal_ranks": list(profile),
    }
    _emit(args, lines, doc)
    return 0


def cmd_kappa(args) -> int:
    from .invariants import kappa, kappa_rank

    arr = _read_arrangement(args.file)
    form = kappa(arr)
    krank = kappa_rank(form)
    lines = [f"basis size: {len(form.basis)}", f"rank: {krank}"]
    for b in form.basis:
        lines.append(f"basis element: {b}")
    if form.is_scalar:
        gram = form.scalar_gram()
        lines.append("gram:")
        for row in gram:
            lines.append("  " + " ".join(f"{x:3d}" for x in row))
        gram_doc: object = [list(r) for r in gram]
    else:
        lines.append(
            "gram entries are degree-4 coefficient vectors "
            "(vector-valued extension of the scalar n=4 pairing)"
        )
        gram_doc = [[list(v) for v in row] for row in form.gram]
    doc = {
        "kappa": {
            "basis_size": len(form.basis),
            "rank": krank,
            "basis": [str(b) for b in form.basis],
            "gram": gram_doc,
            "scalar": form.is_scalar,
        }
    }
    _emit(args, lines, doc)
    return 0


def cmd_linking(args) -> int:
    from .invariants import _triples, pairwise_linking

    arr = _read_arrangement(args.file)
    lk = pairwise_linking(arr)
    triples = _triples(lk)
    lines = ["pairwise:"]
    for i, row in enumerate(lk):
        cells = [_sign_char(x) if i != j else "." for j, x in enumerate(row)]
        lines.append("  " + " ".join(cells))
    lines.append("triples:")
    for t, s in sorted(triples.items()):
        lines.append(f"  {_fmt_set(t)}: {'+1' if s > 0 else '-1'}")
    doc = {
        "linking": {
            "pairwise": [list(row) for row in lk],
            "triples": [{"triple": list(t), "sign": s} for t, s in sorted(triples.items())],
        }
    }
    _emit(args, lines, doc)
    return 0


def cmd_restrict(args) -> int:
    arr = _read_arrangement(args.file)
    at: str | int = args.index
    if at.isdigit():
        at = int(at)
    restricted = restrict(arr, at)
    # the restriction is itself an arrangement file, whatever the format
    sys.stdout.write(serialize_arrangement(restricted))
    return 0


def cmd_compare(args) -> int:
    from .invariants import compare

    a1 = _read_arrangement(args.file)
    a2 = _read_arrangement(args.other)
    report = compare(a1, a2, permutation_search=args.permutation_search)
    def vs(pair):
        return f"{pair[0]} vs {pair[1]}"
    lines = [
        f"matroids ({'up to relabeling' if args.permutation_search else 'labeled'}): "
        + ("equal" if report.matroids_equal else "DIFFER"),
        f"betti: {vs(report.betti)}" + ("" if report.betti[0] == report.betti[1] else "  DIFFER"),
        f"ideal ranks: {vs(report.ideal_ranks)}"
        + ("" if report.ideal_ranks[0] == report.ideal_ranks[1] else "  DIFFER"),
        f"kappa ranks: {vs(report.kappa_ranks)}"
        + ("" if report.kappa_ranks[0] == report.kappa_ranks[1] else "  DIFFER"),
    ]
    if report.triple_multisets is not None:
        same = report.triple_multisets[0] == report.triple_multisets[1]
        lines.append(f"triple multisets: {vs(report.triple_multisets)}" + ("" if same else "  DIFFER"))
    lines.append(f"verdict: {report.verdict}")
    doc = {
        "matroids_equal": report.matroids_equal,
        "betti": [list(b) for b in report.betti],
        "ideal_ranks": [list(p) for p in report.ideal_ranks],
        "kappa_ranks": list(report.kappa_ranks),
        "triples": None
        if report.triple_multisets is None
        else [list(t) for t in report.triple_multisets],
        "differing": list(report.differing),
        "verdict": report.verdict,
    }
    _emit(args, lines, doc)
    return 10 if report.differing else 0


_FILE = ("file", {})
# verb -> (handler, help, its arguments after --format, in the order argparse lists them)
VERBS = {
    "validate": (cmd_validate, "check admissibility invariants", [_FILE]),
    "lattice": (cmd_lattice, "intersection lattice flats", [_FILE]),
    "circuits": (cmd_circuits, "matroid circuits", [_FILE]),
    "betti": (cmd_betti, "NBC sets and betti numbers", [
        _FILE, ("--order", {"help": "NBC element order, e.g. 2,1,3,4"})]),
    "present": (cmd_present, "signed cohomology presentation", [
        _FILE, ("--mode", {"choices": ("real", "complex"), "default": "real"}),
        ("--normalize-signs", {"action": "store_true"})]),
    "kappa": (cmd_kappa, "kappa form and its rank", [_FILE]),
    "linking": (cmd_linking, "pairwise and triple linking signs", [_FILE]),
    "restrict": (cmd_restrict, "restrict onto one subspace", [
        _FILE, ("--index", {"required": True, "help": "subspace label or 1-based index"})]),
    "compare": (cmd_compare, "compare all invariants of two arrangements", [
        _FILE, ("other", {}), ("--permutation-search", {"action": "store_true"})]),
}


def build_parser(verb: str | None = None) -> _Parser:
    """The CLI parser with every verb, or with only `verb`'s subparser when it names one.

    A verb's subparser is the same either way, and so is everything the
    top-level parser prints when its first argument names no verb.
    """
    parser = _Parser(prog="twoarr", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (func, help_, arguments) in VERBS.items():
        if verb not in VERBS or verb == name:
            p = sub.add_parser(name, help=help_)
            p.add_argument("--format", choices=("text", "json"), default="text")
            for arg, kwargs in arguments:
                p.add_argument(arg, **kwargs)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        for line in _report_lines(e.report):
            print(line, file=sys.stderr)
        return 2
    except (UnknownLabel, ValueError) as e:
        # DimensionNot4, ModeMismatch, SizeMismatch, DegenerateRestriction, ...
        print(f"error: {e}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
