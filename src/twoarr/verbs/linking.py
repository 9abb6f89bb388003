from . import _fmt_set, _Result, _read_arrangement, _sign_char


def run(args) -> _Result:
    from ..invariants import _triples, pairwise_linking

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
