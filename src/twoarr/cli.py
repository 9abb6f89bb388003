"""Command-line front end.

Verbs: validate, lattice, circuits, betti, present, kappa, linking,
restrict, compare. Output is aligned text by default or a JSON document
with --format json. Exit codes: 0 success (or no difference found),
2 validation failure, 3 usage or parse error, 10 a distinguishing
invariant was found by compare.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

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
)


# what each cmd_* hands to main: (exit code, text lines, JSON document or None)
_Result = tuple[int, list[str], dict | None]


class UsageError(Exception):
    pass


def _fmt_set(elements) -> str:
    return "{" + ",".join(str(e) for e in elements) + "}"


def _sign_char(s: int) -> str:
    return {1: "+", -1: "-", 0: "."}[s]


def _read_arrangement(path: str) -> Arrangement:
    try:
        with open(path, encoding="utf-8") as f:  # JSON text is UTF-8 (RFC 8259)
            text = f.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    return parse_arrangement(text)


def _emit(args, lines: list[str], doc: dict | None) -> None:
    if args.format == "json" and doc is not None:
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
            {"kind": v.kind, "subset": v.subset, "detail": v.detail}
            for v in report.violations
        ],
    }


def cmd_validate(args) -> _Result:
    try:
        arr = _read_arrangement(args.file)
    except ValidationError as e:
        return 2, _report_lines(e.report), _report_doc(e.report)
    report = ValidationReport(())  # parsing raised on any violation
    lines = [f"arrangement: {arr.n} subspaces in dimension {arr.dim}"] + _report_lines(report)
    return 0, lines, _report_doc(report)


def cmd_lattice(args) -> _Result:
    from .matroid import flats

    arr = _read_arrangement(args.file)
    lattice = flats(arr)
    lines = []
    doc_flats = []
    for group in lattice.flats_by_rank:
        lines.append(
            f"rank {group[0].rank}: " + " ".join(_fmt_set(f.elements) for f in group)
        )
        doc_flats += [{"rank": f.rank, "elements": f.elements} for f in group]
    counts = [len(g) for g in lattice.flats_by_rank]
    lines.append("counts by rank: " + " ".join(str(c) for c in counts))
    return 0, lines, {"flats": doc_flats, "counts": counts}


def cmd_circuits(args) -> _Result:
    from .matroid import circuits

    arr = _read_arrangement(args.file)
    cs = circuits(arr)
    lines = [_fmt_set(c) for c in cs] or ["no circuits"]
    return 0, lines, {"circuits": cs}


def cmd_betti(args) -> _Result:
    from .matroid import nbc_sets, whitney_numbers

    arr = _read_arrangement(args.file)
    order = None
    if args.order is not None:
        try:
            order = tuple(int(x) for x in args.order.split(","))
        except ValueError as e:
            raise UsageError(f"bad --order: {e}") from e
    complex_ = nbc_sets(arr, order)
    # NBC counts do not depend on the order; the whitney check catches one that did
    betti = complex_.counts
    whitney_ok = whitney_numbers(arr) == betti
    lines = [
        "nbc sets: " + " ".join(_fmt_set(s) for s in complex_.all_sets()),
        "betti: " + " ".join(str(b) for b in betti),
        "whitney check: " + ("ok" if whitney_ok else "FAILED"),
    ]
    return 0, lines, {"nbc": complex_.all_sets(), "betti": betti, "whitney_ok": whitney_ok}


def cmd_present(args) -> _Result:
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
            {"circuit": r.circuit, "signs": r.signs, "element": str(r.element)}
            for r in pres.relations
        ],
        "ideal_ranks": profile,
    }
    return 0, lines, doc


def cmd_kappa(args) -> _Result:
    from .invariants import kappa, kappa_rank

    arr = _read_arrangement(args.file)
    form = kappa(arr)
    krank = kappa_rank(form)
    scalar = form.n == 4
    lines = [f"basis size: {len(form.basis)}", f"rank: {krank}"]
    for b in form.basis:
        lines.append(f"basis element: {b}")
    gram = form.gram() if scalar or args.format == "json" else None  # dense only where printed
    if scalar:
        lines.append("gram:")
        for row in gram:
            lines.append("  " + " ".join(f"{x:3d}" for x in row))
    else:
        lines.append(
            "gram entries are degree-4 coefficient vectors "
            "(vector-valued extension of the scalar n=4 pairing)"
        )
    doc = {
        "kappa": {
            "basis_size": len(form.basis),
            "rank": krank,
            "basis": [str(b) for b in form.basis],
            "gram": gram,
            "scalar": scalar,
        }
    }
    return 0, lines, doc


def cmd_linking(args) -> _Result:
    from .invariants import _triples, pairwise_linking

    arr = _read_arrangement(args.file)
    lk = pairwise_linking(arr)
    triples = _triples(lk)
    lines = ["pairwise:"]
    for row in lk:
        lines.append("  " + " ".join(_sign_char(x) for x in row))  # zero diagonal prints "."
    lines.append("triples:")
    for t, s in sorted(triples.items()):
        lines.append(f"  {_fmt_set(t)}: {'+1' if s > 0 else '-1'}")
    doc = {
        "linking": {
            "pairwise": lk,
            "triples": [{"triple": t, "sign": s} for t, s in sorted(triples.items())],
        }
    }
    return 0, lines, doc


def cmd_restrict(args) -> _Result:
    arr = _read_arrangement(args.file)
    # a label is UTF-8, as the file is; this turns argv's surrogate escapes back into their bytes
    at: str | int = args.index.encode("utf-8", "surrogateescape").decode("utf-8", "surrogateescape")
    if at.isdecimal():  # isdigit() also admits "²", which int() rejects
        at = int(at)
    # the restriction is itself an arrangement file, whatever the format
    return 0, serialize_arrangement(restrict(arr, at)).splitlines(), None


def cmd_compare(args) -> _Result:
    """Print `invariants.compare`'s report; its `differing` alone marks DIFFER and sets exit 10."""
    from .invariants import compare

    a1 = _read_arrangement(args.file)
    a2 = _read_arrangement(args.other)
    report = compare(a1, a2, permutation_search=args.permutation_search)
    matroids = "DIFFER" if "matroid" in report.differing else "equal"
    lines = [f"matroids ({'up to relabeling' if args.permutation_search else 'labeled'}): {matroids}"]
    for key, label, pair in [
        ("betti", "betti", report.betti),
        ("ideal-ranks", "ideal ranks", report.ideal_ranks),
        ("kappa-rank", "kappa ranks", report.kappa_ranks),
        ("triple-multiset", "triple multisets", report.triple_multisets),
    ]:
        if pair is not None:
            lines.append(f"{label}: {pair[0]} vs {pair[1]}" + ("  DIFFER" if key in report.differing else ""))
    lines.append(f"verdict: {report.verdict}")
    doc = {
        "matroids_equal": report.matroids_equal,
        "betti": report.betti,
        "ideal_ranks": report.ideal_ranks,
        "kappa_ranks": report.kappa_ranks,
        "triples": report.triple_multisets,
        "differing": report.differing,
        "verdict": report.verdict,
    }
    return (10 if report.differing else 0), lines, doc


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_FILE = ("file", {})
# verb -> (handler, help, its arguments after _FORMAT, in the order argparse lists them)
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


def build_parser():
    """The CLI parser with every verb."""
    import argparse  # with gettext and, at its first message, locale: paid only off the plain path

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would sys.exit(2); we reserve 2
            raise UsageError(message)

    parser = _Parser(prog="twoarr", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (func, help_, arguments) in VERBS.items():
        p = sub.add_parser(name, help=help_)
        for arg, kwargs in (_FORMAT, *arguments):
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
    # The usage wrapped as argparse 3.10-3.12 wraps it at 80 columns; 3.13 keeps
    # "..." on the verbs' line. Set after add_subparsers, which derives each
    # verb's prog from the usage.
    indent = "\n" + " " * len("usage: twoarr ")
    parser.usage = "%(prog)s [-h]" + indent + "{" + ",".join(VERBS) + "}" + indent + "..."
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser` parses from a plainly spelled argv, or None.

    Plainly spelled: a verb, then its positionals and its long options in full,
    each option at most once and followed by its value, if it takes one, which
    starts with no "-" and is one of its choices; required options present.
    Everything else, help and every usage error included, is argparse's to read.
    """
    if not argv or argv[0] not in VERBS:
        return None
    func, _, arguments = VERBS[argv[0]]
    specs = dict((_FORMAT, *arguments))  # an option's name starts with "-", a positional's not
    given: dict[str, str | bool] = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token not in specs or token in given:
            return None
        elif "action" in specs[token]:  # store_true, the only action in VERBS
            given[token] = True
        else:
            given[token] = value = next(tokens, "-")
            if value.startswith("-") or value not in specs[token].get("choices", (value,)):
                return None
    names = [arg for arg in specs if not arg.startswith("-")]
    required = {arg for arg, kwargs in specs.items() if kwargs.get("required")}
    if len(positionals) != len(names) or not required <= given.keys():
        return None
    options = {
        arg[2:].replace("-", "_"): given.get(arg, False if "action" in kwargs else kwargs.get("default"))
        for arg, kwargs in specs.items()
        if arg.startswith("-")
    }
    return SimpleNamespace(verb=argv[0], **dict(zip(names, positionals)), **options, func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
        code, lines, doc = args.func(args)
        _emit(args, lines, doc)
        return code
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        for line in _report_lines(e.report):
            print(line, file=sys.stderr)
        return 2
    except (UsageError, UnknownLabel, ValueError) as e:
        # DimensionNot4, ModeMismatch, SizeMismatch, DegenerateRestriction, ...
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4


def run() -> None:
    """Entry point of the `twoarr` script and of `python -m twoarr.cli`: one `main` per process.

    The first freeze moves what the imports made into the collector's permanent
    generation, so collections inside `main` skip it; the second does the same for
    what `main` leaves, so the collections at shutdown trace none of it, and the OS
    reclaims its memory at exit. `main` itself never freezes: callers that run it
    many times in one process would keep all their garbage to the end.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, not in a traceback at shutdown
    except BrokenPipeError:
        # as the Python docs' SIGPIPE note: the flush at shutdown goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
