import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twoarr.arrangement import (
    Arrangement,
    ComplexFormSpec,
    SubspacePair,
    from_complex_form,
    validate,
)
from twoarr.fixtures import FIXTURES, load_fixture
from twoarr.restriction import serialize_arrangement
from exterior_reference import from_terms

SRC = Path(__file__).resolve().parent.parent / "src"
# A start-up hook that `site` imports from a directory on PYTHONPATH: when the child
# ends, by `os._exit` as `cli.run` ends it or the usual way, it writes the names in
# sys.modules to $MODULE_LISTING, and leaves stdout, stderr and the exit code alone.
LISTING_HOOK = """\
import atexit, os, sys
def _listing():
    names = " ".join(sorted(sys.modules))
    with open(os.environ["MODULE_LISTING"], "w", encoding="utf-8") as f:
        f.write(names)
def _exit(code, os_exit=os._exit):
    _listing()
    os_exit(code)
os._exit = _exit
atexit.register(_listing)
"""


@pytest.fixture(scope="session")
def python_child(tmp_path_factory):
    """Runs `python *args` with the listing hook in the benchmark's child environment
    (`bench/run.py`), updated by `env`, and gives its CompletedProcess, whose `modules`
    are the child's sys.modules at exit. Every test that starts a child starts it here."""
    hook = tmp_path_factory.mktemp("hook")
    (hook / "sitecustomize.py").write_text(LISTING_HOOK)
    count = itertools.count()

    def run(*args, env=None, stdout=subprocess.PIPE, timeout=60):
        listing = hook / f"{next(count)}.txt"
        env = {
            "PYTHONPATH": f"{SRC}{os.pathsep}{hook}",
            "PYTHONDONTWRITEBYTECODE": "1",  # so every module is compiled, as on every commit measured
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C.UTF-8",
            "MODULE_LISTING": str(listing),
            **(env or {}),
        }
        proc = subprocess.run(
            [sys.executable, *args], env=env, cwd=SRC.parent, stdout=stdout, stderr=subprocess.PIPE, timeout=timeout
        )
        proc.modules = frozenset(listing.read_text().split())
        return proc

    return run


@pytest.fixture(scope="session")
def cli_run(python_child):
    """`python -m twoarr.cli *argv` as the benchmark runs it, COLUMNS pinned for argparse's
    help: once per argv in a session, its result shared by every test that reads it."""
    return functools.cache(lambda *argv: python_child("-m", "twoarr.cli", *argv, env={"COLUMNS": "80"}))


@pytest.fixture(scope="session")
def baseline(python_child) -> frozenset[str]:
    """The modules a bare interpreter in the child environment holds by itself."""
    return python_child("-c", "").modules


def form(*coeffs) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


def pair(name, first, second) -> SubspacePair:
    return SubspacePair(name, form(*first), form(*second))


def elem(*terms):
    """The reference exterior element sum c * e_mon over the (mon, c) terms."""
    return from_terms({mon: c for mon, c in terms})


def all_subsets(n):
    """Every subset of 1..n as a sorted tuple, by size and then lexicographically."""
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


@pytest.fixture
def int_digit_limit():
    """Pin the interpreter's int-from-string digit limit to its default; yields it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def generic_lines(n, seed, conjugate_last=False):
    """n seeded generic complex lines a z1 + b z2 = 0 in C^2, Gaussian-integer coefficients.

    With `conjugate_last` the last member is conjugate-linear in z2.
    """
    return generic_hyperplanes(n, 2, seed, conjugate_last)


def generic_hyperplanes(n, rank, seed, conjugate_last=False):
    """n seeded generic complex hyperplanes in C^rank, Gaussian-integer coefficients.

    With `conjugate_last` the last member is conjugate-linear in its last coordinate.
    """
    rng = random.Random(seed)
    zero = (Fraction(0), Fraction(0))

    def gaussian():
        return (Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50)))

    pairs = []
    for k in range(1, n + 1):
        coeffs = tuple(gaussian() for _ in range(rank))
        if conjugate_last and k == n:
            spec = ComplexFormSpec(coeffs[:-1] + (zero,), (zero,) * (rank - 1) + coeffs[-1:])
        else:
            spec = ComplexFormSpec(coeffs, (zero,) * rank)
        first, second = from_complex_form(spec)
        pairs.append(SubspacePair(f"L{k}", first, second, spec))
    arr = Arrangement(2 * rank, tuple(pairs))
    assert validate(arr).ok, f"seed {seed} gives a non-generic arrangement"
    return arr


def z_linear(d, rows):
    """The arrangement in C^d of the hyperplanes sum_j row[j] z_j = 0, named H1, H2, ...

    Each row lists d Gaussian-integer coefficients as (re, im) pairs.
    """
    zero = (Fraction(0), Fraction(0))
    pairs = []
    for k, row in enumerate(rows, start=1):
        spec = ComplexFormSpec(tuple((Fraction(a), Fraction(b)) for a, b in row), (zero,) * d)
        first, second = from_complex_form(spec)
        pairs.append(SubspacePair(f"H{k}", first, second, spec))
    return Arrangement(2 * d, tuple(pairs))


def graphic(d, edges):
    """The graphic arrangement in C^d of a graph on the vertices 0..d, one member per edge.

    An edge (0, i) gives z_i and an edge (i, j), 0 < i < j, gives z_i - z_j.
    """

    def z(v):
        return [int(m == v) for m in range(1, d + 1)]

    rows = (z(j) if i == 0 else [a - b for a, b in zip(z(i), z(j))] for i, j in edges)
    return z_linear(d, ([(c, 0) for c in row] for row in rows))


# connected graphs on the vertices 0..d: name -> (d, edges)
GRAPHS = {
    "path P_5": (4, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "cycle C_5": (4, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "star K_1,4": (4, [(0, 2), (1, 2), (2, 3), (2, 4)]),
    "K_4 minus an edge": (3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "wheel W_5": (4, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]),  # hub 0
    "triangular prism": (5, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "K_2,3": (4, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
}


def chromatic(vertices: frozenset, edges: frozenset) -> list[int]:
    """Coefficients (constant term first) of the chromatic polynomial, by deletion-contraction."""
    if not edges:
        return [0] * len(vertices) + [1]
    edge = min(edges, key=sorted)
    u, v = sorted(edge)
    deleted = chromatic(vertices, edges - {edge})
    merged = {frozenset(u if w == v else w for w in e) for e in edges - {edge}}
    contracted = chromatic(vertices - {v}, frozenset(e for e in merged if len(e) == 2))
    return [a - b for a, b in itertools.zip_longest(deleted, contracted, fillvalue=0)]


# kind -> (m, whether z_i = 0 are members): B_d = G(2, 1, d), D_d = G(2, 2, d)
REFLECTION_KINDS = {"B": (2, True), "D": (2, False), "G(4,1)": (4, True), "G(4,4)": (4, False)}


def reflection(kind, d):
    """The reflection arrangement in C^d of B_d, D_d, G(4, 1, d) or G(4, 4, d).

    G(m, p, d) has z_i - w z_j for i < j and each m-th root of unity w, and
    z_i (listed first) unless p = m. Its Betti numbers are the coefficients
    of the product of 1 + (k m + 1) t over k < d - 1, times 1 + ((d - 1) m + 1) t,
    or times 1 + (d - 1)(m - 1) t when p = m (Orlik-Terao, ch. 6).
    """
    m, with_axes = REFLECTION_KINDS[kind]
    roots = [(1, 0), (0, 1), (-1, 0), (0, -1)][:: 4 // m]

    def row(i, j=None, w=(1, 0)):
        return [(1, 0) if v == i else (-w[0], -w[1]) if v == j else (0, 0) for v in range(d)]

    axes = [row(i) for i in range(d)] if with_axes else []
    return z_linear(d, axes + [row(i, j, w) for i, j in itertools.combinations(range(d), 2) for w in roots])


def braid(d):
    """The braid arrangement A_d in essential form: z_i (i = 1..d) and z_i - z_j in C^d."""
    return graphic(d, itertools.combinations(range(d + 1), 2))


def braid_a4():
    return braid(4)


def input_paths(directory: Path) -> dict[str, str]:
    """The path of each fixture, and of each generated input of the goldens written to `directory`."""
    paths = {f.removesuffix(".arr"): str(SRC / "twoarr" / "fixtures" / f) for f in FIXTURES}
    generated = {"lines7": generic_lines(7, 3), "lines7-conj": generic_lines(7, 3, True), "a4": braid_a4()}
    for name, arr in generated.items():
        paths[name] = str(directory / f"{name}.arr")
        Path(paths[name]).write_text(serialize_arrangement(arr))
    return paths


@pytest.fixture(scope="session")
def inputs(tmp_path_factory) -> dict[str, str]:
    return input_paths(tmp_path_factory.mktemp("inputs"))


@pytest.fixture(scope="session")
def arr_b():
    return load_fixture("example22-B")


@pytest.fixture(scope="session")
def arr_bprime():
    return load_fixture("example22-Bprime")


@pytest.fixture(scope="session")
def arr_bhat():
    return load_fixture("thm32-Bhat")


@pytest.fixture(scope="session")
def arr_bhat_complex():
    return load_fixture("thm32-Bhat-complex")


def independent_pair():
    """Two transversal subspaces in R^4: no circuits at all."""
    return Arrangement(
        4,
        (
            pair("H1", (1, 0, 0, 0), (0, 1, 0, 0)),
            pair("H2", (0, 0, 1, 0), (0, 0, 0, 1)),
        ),
    )


def single_subspace():
    """One codimension-2 subspace of R^2: the origin."""
    return Arrangement(2, (pair("H1", (1, 0), (0, 1)),))
