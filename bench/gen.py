"""Seeded arrangement files for the twoarr benchmark.

Builds, as arrangement documents in the format `twoarr` parses:

- generic z-linear lines in C^2 and hyperplanes in C^3 with Gaussian-integer
  coefficients in [-50, 50], optionally with a conjugate-linear last member;
- the braid arrangement A_4 in essential form: z_i and z_i - z_j in C^4.

Genericity (every d members of an arrangement in C^d meet only in 0) is
checked here with exact arithmetic that does not use `twoarr`, because the
benchmark's known answers (circuits, Betti numbers) assume it. A seed that
gives a non-generic arrangement is an error, never silently replaced.

    python3 bench/gen.py --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

COEFF = 50
DEFAULT_SEED = 3


class NotGeneric(ValueError):
    """The seeded coefficients do not give a generic arrangement."""


def _gaussian(rng: random.Random) -> list[int]:
    return [rng.randint(-COEFF, COEFF), rng.randint(-COEFF, COEFF)]


def _member(name: str, z: list[list[int]], zbar: list[list[int]]) -> dict:
    def block(coeffs):
        return [[str(re), str(im)] for re, im in coeffs]

    return {"name": name, "complex": {"z": block(z), "zbar": block(zbar)}}


def _real_forms(member: dict) -> list[list[int]]:
    # f = sum (a + ib) z_j + (c + id) conj(z_j) with z_j = x_j + i y_j gives
    # Re f = (a + c) x_j + (d - b) y_j and Im f = (b + d) x_j + (a - c) y_j
    re_part, im_part = [], []
    for (a, b), (c, d) in zip(member["complex"]["z"], member["complex"]["zbar"]):
        a, b, c, d = (int(v) for v in (a, b, c, d))
        re_part += [a + c, d - b]
        im_part += [b + d, a - c]
    return [re_part, im_part]


def _rank(rows: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def check_generic(doc: dict) -> None:
    """Raise NotGeneric unless every d of the members meet only in 0."""
    d = doc["dim"] // 2
    forms = [_real_forms(m) for m in doc["subspaces"]]
    for subset in itertools.combinations(range(len(forms)), d):
        rows = [row for k in subset for row in forms[k]]
        if _rank(rows) != 2 * d:
            names = [doc["subspaces"][k]["name"] for k in subset]
            raise NotGeneric(f"members {names} do not meet transversally")


def generic_lines(seed: int, n: int = 7) -> tuple[dict, dict]:
    """n generic z-linear lines in C^2, and the variant whose last line is
    replaced by the conjugate-linear line b1.z + conj(b2).conj(z) = 0.

    b1 and b2 are the first two lines' coefficients. The new line's linking
    sign with line 1 differs from its sign with line 2, so the variant has a
    triple with coefficient -1 while every triple of z-linear lines has +1:
    `compare` of the pair always finds a difference.
    """
    rng = random.Random(seed)
    zs = [[_gaussian(rng) for _ in range(2)] for _ in range(n)]
    zero = [[0, 0], [0, 0]]
    lines = [_member(f"H{k + 1}", z, zero) for k, z in enumerate(zs)]
    conj_b2 = [[re, -im] for re, im in zs[1]]
    variant = lines[:-1] + [_member(f"H{n}", zs[0], conj_b2)]
    docs = ({"dim": 4, "subspaces": lines}, {"dim": 4, "subspaces": variant})
    for doc in docs:
        check_generic(doc)
    return docs


def generic_hyperplanes(seed: int, n: int = 7) -> dict:
    """n generic hyperplanes in C^3; the last one is conjugate-linear, with
    independent random z and conj(z) coefficients."""
    rng = random.Random(seed)
    zero = [[0, 0]] * 3
    members = [
        _member(f"H{k + 1}", [_gaussian(rng) for _ in range(3)], zero) for k in range(n - 1)
    ]
    z = [_gaussian(rng) for _ in range(3)]
    zbar = [_gaussian(rng) for _ in range(3)]
    members.append(_member(f"H{n}", z, zbar))
    doc = {"dim": 6, "subspaces": members}
    check_generic(doc)
    return doc


def braid_a4() -> dict:
    """z_i (i = 1..4) and z_i - z_j (i < j) in C^4: 10 hyperplanes."""
    rows = [[int(k == i) for k in range(4)] for i in range(4)]
    rows += [[int(k == i) - int(k == j) for k in range(4)] for i, j in itertools.combinations(range(4), 2)]
    zero = [[0, 0]] * 4
    members = [_member(f"H{k + 1}", [[c, 0] for c in row], zero) for k, row in enumerate(rows)]
    return {"dim": 8, "subspaces": members}


def write_doc(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def write_generated(seed: int, out: Path) -> dict[str, Path]:
    """Write every generated input into `out`; returns name -> path."""
    lines, lines_conj = generic_lines(seed)
    docs = {
        "lines7": lines,
        "lines7-conj": lines_conj,
        "planes7-conj": generic_hyperplanes(seed),
        "braid-a4": braid_a4(),
    }
    return {name: write_doc(doc, out / f"{name}.arr") for name, doc in docs.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for path in write_generated(args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
