from . import _fmt_set, _Result, _read_arrangement, _sign_char


def run(args) -> _Result:
    from ..presentation import full_presentation, ideal_rank_profile, normalize_signs

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
