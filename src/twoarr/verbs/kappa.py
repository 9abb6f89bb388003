from . import _Result, _read_arrangement


def run(args) -> _Result:
    from ..invariants import kappa, kappa_rank

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
