"""The CLI's verb handlers, one module each, and what they share.

`twoarr.verbs.<verb>` defines `run(args)` for that verb, and `cli.main`
imports only the module of the verb it parsed, so each call compiles one
handler. No handler imports `twoarr.cli`: under `python -m twoarr.cli`
that module runs as `__main__`, and importing it would compile it again.

Each handler imports the library functions it calls inside `run`. So a
call compiles only the modules its verb runs, and the names are looked up
when `run` is called: a test's `monkeypatch` of a library attribute takes
effect even after the handler has loaded. `test_cli.py` patches
`matroid.nbc_sets` (`test_betti_enumerates_each_nbc_complex_once`),
`invariants.kappa` and `invariants.compare` this way. Imported at module
level, each name would stay bound to the original, and those spies would
see no call.
"""

from ..arrangement import Arrangement, ValidationReport, parse_arrangement

# what each run hands to cli.main: (exit code, text lines, JSON document or None)
_Result = tuple[int, list[str], dict | None]


class UsageError(Exception):
    pass


def _fmt_set(elements) -> str:
    return "{" + ",".join(str(e) for e in elements) + "}"


def _sign_char(s: int) -> str:
    return {1: "+", -1: "-", 0: "."}[s]


def _read_arrangement(path: str) -> Arrangement:
    try:
        with open(path, encoding="utf-8") as f:  # JSON text is UTF-8 (RFC 8259)
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    return parse_arrangement(text)


def _report_lines(report: ValidationReport) -> list[str]:
    if report.ok:
        return ["no violations"]
    return [f"violation: {v.kind} subset={_fmt_set(v.subset)} ({v.detail})" for v in report.violations]
