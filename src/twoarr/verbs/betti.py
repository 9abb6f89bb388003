from . import UsageError, _fmt_set, _Result, _read_arrangement


def run(args) -> _Result:
    from ..matroid import nbc_sets, whitney_numbers

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
