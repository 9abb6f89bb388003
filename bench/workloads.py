"""The benchmark's three workloads and their correctness gate.

A workload is an ordered list of CLI invocations over named inputs. An
argument `@name` stands for the path of input `name`. Each invocation may
carry known answers: checks on its exit code and stdout whose expected
values come from theory, not from the code under test. Separately, the
sha256 of every invocation's stdout and its exit code, recorded from the
seed code, is kept in `digests.json`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).resolve().parent / "digests.json"
FIXTURES = ("example22-B", "example22-Bprime", "thm32-Bhat", "thm32-Bhat-complex")

Answer = tuple[str, Callable[[int, str], bool]]


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    answers: tuple[Answer, ...] = ()

    @property
    def verb(self) -> str:
        return self.args[0]

    @property
    def label(self) -> str:
        return " ".join(self.args)

    def argv(self, paths: dict[str, Path]) -> list[str]:
        return [str(paths[a[1:]]) if a.startswith("@") else a for a in self.args]


def _inv(*args: str, answers: tuple[Answer, ...] = ()) -> Invocation:
    return Invocation(args, answers)


def _json(out: str) -> dict:
    return json.loads(out)


def exit_is(code: int) -> Answer:
    return (f"exit {code}", lambda rc, out: rc == code)


def line_is(line: str) -> Answer:
    return (f"line {line!r}", lambda rc, out: line in out.splitlines())


def valid() -> Answer:
    return ("no violations", lambda rc, out: rc == 0 and _json(out) == {"ok": True, "violations": []})


def betti_is(betti: tuple[int, ...]) -> Answer:
    return (f"betti {betti}", lambda rc, out: rc == 0 and _json(out)["betti"] == list(betti))


def flat_counts_are(counts: tuple[int, ...]) -> Answer:
    return (f"flat counts {counts}", lambda rc, out: rc == 0 and _json(out)["counts"] == list(counts))


def circuits_are_all(n: int, size: int) -> Answer:
    expected = [list(c) for c in itertools.combinations(range(1, n + 1), size)]
    return (f"circuits = all {size}-subsets", lambda rc, out: rc == 0 and _json(out)["circuits"] == expected)


def ideal_complements(betti: tuple[int, ...]) -> Answer:
    """rank I^p + b_p = C(n, p) in every degree p = 1..n."""
    n = betti[1]
    padded = list(betti) + [0] * (n + 1 - len(betti))

    def check(rc: int, out: str) -> bool:
        ranks = _json(out)["ideal_ranks"]
        return rc == 0 and len(ranks) == n and all(
            r + padded[p] == comb(n, p) for p, r in enumerate(ranks, start=1)
        )

    return (f"rank I^p + b_p = C(n, p) for betti {betti}", check)


def all_triples_positive() -> Answer:
    def check(rc: int, out: str) -> bool:
        triples = _json(out)["linking"]["triples"]
        return rc == 0 and bool(triples) and all(t["sign"] == 1 for t in triples)

    return ("every triple coefficient +1", check)


def generic_betti(n: int, r: int) -> tuple[int, ...]:
    """Betti numbers of n generic hyperplanes of rank r: C(n, p) below r, C(n-1, r-1) at r."""
    return tuple(comb(n, p) for p in range(r)) + (comb(n - 1, r - 1),)


def generic_flat_counts(n: int, r: int) -> tuple[int, ...]:
    return tuple(comb(n, p) for p in range(r)) + (1,)


LINES = generic_betti(7, 2)  # (1, 7, 6)
PLANES = generic_betti(7, 3)  # (1, 7, 21, 15)
BRAID_A4 = (1, 10, 35, 50, 24)  # (1 + t)(1 + 2t)(1 + 3t)(1 + 4t)
BRAID_A4_FLATS = (1, 10, 25, 15, 1)  # set partitions of 5 points by rank
BHAT_LINE = "betti: 1 5 10 6"  # B-hat realises the uniform matroid U(3,5)

# Every reader-facing verb over the paper's four fixtures, text format.
PAPER_FIXTURES = (
    *(_inv("validate", f"@{f}", answers=(line_is("no violations"),)) for f in FIXTURES),
    _inv("lattice", "@thm32-Bhat"),
    _inv("circuits", "@thm32-Bhat"),
    _inv("betti", "@thm32-Bhat", answers=(line_is(BHAT_LINE),)),
    _inv("betti", "@thm32-Bhat", "--order", "5,4,3,2,1", answers=(line_is(BHAT_LINE),)),
    *(_inv("present", f"@{f}") for f in FIXTURES),
    _inv("present", "@example22-B", "--mode", "complex"),
    _inv("present", "@thm32-Bhat-complex", "--mode", "complex"),
    *(_inv("kappa", f"@{f}") for f in FIXTURES),
    _inv("linking", "@example22-B"),
    _inv("linking", "@example22-Bprime"),
    _inv("restrict", "@thm32-Bhat", "--index", "H3"),
    _inv(
        "compare",
        "@example22-B",
        "@example22-Bprime",
        answers=(exit_is(10), line_is("kappa ranks: 0 vs 2  DIFFER"), line_is("verdict: DISTINGUISHED")),
    ),
    _inv("compare", "@thm32-Bhat", "@thm32-Bhat-complex", answers=(exit_is(0),)),
)

# Seven generic lines in C^2 and their conjugate-linear variant: large ideal
# slices (35 relations) over a three-rank lattice. The cheap `circuits` and
# `betti` calls carry known answers that `present` is checked against.
GENERIC_LINES = tuple(
    Invocation(inv.args + ("--format", "json"), inv.answers)
    for inv in (
        _inv("circuits", "@lines7", answers=(circuits_are_all(7, 3),)),
        _inv("betti", "@lines7", answers=(betti_is(LINES),)),
        _inv("present", "@lines7", answers=(ideal_complements(LINES),)),
        _inv("present", "@lines7-conj", answers=(ideal_complements(LINES),)),
        _inv("kappa", "@lines7"),
        _inv("kappa", "@lines7-conj"),
        _inv("linking", "@lines7", answers=(all_triples_positive(),)),
        _inv(
            "compare",
            "@lines7",
            "@lines7-conj",
            answers=(exit_is(10), ("verdict DISTINGUISHED", lambda rc, out: _json(out)["verdict"] == "DISTINGUISHED")),
        ),
    )
)

# A_4 and seven generic planes in C^3: the rank oracle, lattice enumeration
# and the circuit scan, and no ideal slice at all. Each A_4 call spends
# about 1.4 s validating at parse time, so A_4 runs only the two verbs whose
# answers are known (flat counts, Betti numbers); `betti` also runs the
# circuit scan and the Moebius sum on it.
LATTICE_HEAVY = tuple(
    Invocation(inv.args + ("--format", "json"), inv.answers)
    for inv in (
        _inv("lattice", "@braid-a4", answers=(flat_counts_are(BRAID_A4_FLATS),)),
        _inv("betti", "@braid-a4", answers=(betti_is(BRAID_A4),)),
        _inv("validate", "@planes7-conj", answers=(valid(),)),
        _inv("lattice", "@planes7-conj", answers=(flat_counts_are(generic_flat_counts(7, 3)),)),
        _inv("circuits", "@planes7-conj", answers=(circuits_are_all(7, 4),)),
        _inv("betti", "@planes7-conj", answers=(betti_is(PLANES),)),
    )
)

WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "paper-fixtures": PAPER_FIXTURES,
    "generic-lines": GENERIC_LINES,
    "lattice-heavy": LATTICE_HEAVY,
}


def inputs_used(invocations: tuple[Invocation, ...]) -> list[str]:
    return sorted({a[1:] for inv in invocations for a in inv.args if a.startswith("@")})


def digest_key(workload: str, input_seed: int | None, inv: Invocation) -> str:
    return f"{workload}/{'-' if input_seed is None else input_seed}/{inv.label}"


def digest(exit_code: int, stdout: bytes) -> str:
    return f"{exit_code}:{hashlib.sha256(stdout).hexdigest()}"


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def problems(inv: Invocation, key: str, digests: dict[str, str], exit_code: int, stdout: bytes) -> list[str]:
    """Why an invocation's result is wrong; empty when it passes the gate."""
    out: list[str] = []
    recorded = digests.get(key)
    if recorded is None:
        out.append("no recorded digest")
    elif recorded != digest(exit_code, stdout):
        out.append(f"digest {digest(exit_code, stdout)[:20]}... != recorded {recorded[:20]}...")
    text = stdout.decode("utf-8", "replace")
    for name, check in inv.answers:
        try:
            ok = check(exit_code, text)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            out.append(f"known answer failed: {name}")
    return out
