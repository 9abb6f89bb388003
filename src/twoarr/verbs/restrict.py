from . import _Result, _read_arrangement


def run(args) -> _Result:
    from ..restriction import restrict, serialize_arrangement

    arr = _read_arrangement(args.file)
    # a label is UTF-8, as the file is; this turns argv's surrogate escapes back into their bytes
    at: str | int = args.index.encode("utf-8", "surrogateescape").decode("utf-8", "surrogateescape")
    if at.isdecimal():  # isdigit() also admits "²", which int() rejects
        at = int(at)
    # the restriction is itself an arrangement file, whatever the format
    return 0, serialize_arrangement(restrict(arr, at)).splitlines(), None
