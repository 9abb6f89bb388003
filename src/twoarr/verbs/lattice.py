from . import _fmt_set, _Result, _read_arrangement


def run(args) -> _Result:
    from ..matroid import flats

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
