"""Command-line front end.

Verbs: validate, lattice, circuits, betti, present, kappa, linking,
restrict, compare. Output is aligned text by default or a JSON document
with --format json. Exit codes: 0 success (or no difference found),
1 standard output closed before all of it was written, 2 validation
failure, 3 usage or parse error, 4 out of memory, 10 a distinguishing
invariant was found by compare.
"""

# This module reads argv and prints; each verb's handler is the module
# twoarr.verbs.<verb>, which main imports for the one verb it runs, so a call
# compiles no other verb's code.
import importlib
import os
import sys
from types import SimpleNamespace

from .arrangement import ParseError, UnknownLabel, ValidationError
from .verbs import UsageError, _report_lines


def _emit(args, lines: list[str], doc: dict | None) -> None:
    if args.format == "json" and doc is not None:
        from ._jsontext import dumps  # compiled only where JSON is written

        print(dumps(doc))
    else:
        for line in lines:
            print(line)


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_FILE = ("file", {})
# verb -> (help, its arguments after _FORMAT, in the order argparse lists them)
VERBS = {
    "validate": ("check admissibility invariants", [_FILE]),
    "lattice": ("intersection lattice flats", [_FILE]),
    "circuits": ("matroid circuits", [_FILE]),
    "betti": ("NBC sets and betti numbers", [
        _FILE, ("--order", {"help": "NBC element order, e.g. 2,1,3,4"})]),
    "present": ("signed cohomology presentation", [
        _FILE, ("--mode", {"choices": ("real", "complex"), "default": "real"}),
        ("--normalize-signs", {"action": "store_true"})]),
    "kappa": ("kappa form and its rank", [_FILE]),
    "linking": ("pairwise and triple linking signs", [_FILE]),
    "restrict": ("restrict onto one subspace", [
        _FILE, ("--index", {"required": True, "help": "subspace label or 1-based index"})]),
    "compare": ("compare all invariants of two arrangements", [
        _FILE, ("other", {}), ("--permutation-search", {"action": "store_true"})]),
}


def build_parser():
    """The CLI parser with every verb."""
    import argparse  # with gettext and, at its first message, locale: paid only off the plain path

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would sys.exit(2); we reserve 2
            raise UsageError(message)

    parser = _Parser(prog="twoarr", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_, arguments) in VERBS.items():
        p = sub.add_parser(name, help=help_)
        for arg, kwargs in (_FORMAT, *arguments):
            p.add_argument(arg, **kwargs)
    # The usage wrapped as argparse 3.10-3.12 wraps it at 80 columns; 3.13 keeps
    # "..." on the verbs' line. Set after add_subparsers, which derives each
    # verb's prog from the usage.
    indent = "\n" + " " * len("usage: twoarr ")
    parser.usage = "%(prog)s [-h]" + indent + "{" + ",".join(VERBS) + "}" + indent + "..."
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser` parses from a plainly spelled argv, or None.

    Plainly spelled: a verb, then its positionals and its long options in full,
    each option at most once and followed by its value, if it takes one, which
    starts with no "-" and is one of its choices; required options present.
    Everything else, help and every usage error included, is argparse's to read.
    """
    if not argv or argv[0] not in VERBS:
        return None
    _, arguments = VERBS[argv[0]]
    specs = dict((_FORMAT, *arguments))  # an option's name starts with "-", a positional's not
    given: dict[str, str | bool] = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token not in specs or token in given:
            return None
        elif "action" in specs[token]:  # store_true, the only action in VERBS
            given[token] = True
        else:
            given[token] = value = next(tokens, "-")
            if value.startswith("-") or value not in specs[token].get("choices", (value,)):
                return None
    names = [arg for arg in specs if not arg.startswith("-")]
    required = {arg for arg, kwargs in specs.items() if kwargs.get("required")}
    if len(positionals) != len(names) or not required <= given.keys():
        return None
    options = {
        arg[2:].replace("-", "_"): given.get(arg, False if "action" in kwargs else kwargs.get("default"))
        for arg, kwargs in specs.items()
        if arg.startswith("-")
    }
    return SimpleNamespace(verb=argv[0], **dict(zip(names, positionals)), **options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
        verb = importlib.import_module(f"{__package__}.verbs.{args.verb}")
        code, lines, doc = verb.run(args)
        _emit(args, lines, doc)
        return code
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        for line in _report_lines(e.report):
            print(line, file=sys.stderr)
        return 2
    except (UsageError, UnknownLabel, ValueError) as e:
        # DimensionNot4, ModeMismatch, SizeMismatch, DegenerateRestriction, ...
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4


def run() -> None:
    """Entry point of the `twoarr` script and of `python -m twoarr.cli`: one `main` per process.

    Once `main` returns, the process flushes stdout and stderr and ends by
    `os._exit`, without interpreter teardown, which would only free objects the
    OS reclaims anyway; the bytes written are the same, and `sys.exit(main())`
    would cost 10-14% more CPU per call. An exception that escapes `main`,
    such as `--help`'s `SystemExit`, ends the process the usual way.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; os._exit writes nothing more
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
