from . import _Result, _read_arrangement


def run(args) -> _Result:
    """Print `invariants.compare`'s report; its `differing` alone marks DIFFER and sets exit 10."""
    from ..invariants import compare

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
