from . import _fmt_set, _Result, _read_arrangement


def run(args) -> _Result:
    from ..matroid import circuits

    arr = _read_arrangement(args.file)
    cs = circuits(arr)
    lines = [_fmt_set(c) for c in cs] or ["no circuits"]
    return 0, lines, {"circuits": cs}
