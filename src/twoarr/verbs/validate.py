from ..arrangement import ValidationError, ValidationReport
from . import _Result, _read_arrangement, _report_lines


def _report_doc(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "subset": v.subset, "detail": v.detail}
            for v in report.violations
        ],
    }


def run(args) -> _Result:
    try:
        arr = _read_arrangement(args.file)
    except ValidationError as e:
        return 2, _report_lines(e.report), _report_doc(e.report)
    report = ValidationReport(())  # parsing raised on any violation
    lines = [f"arrangement: {arr.n} subspaces in dimension {arr.dim}"] + _report_lines(report)
    return 0, lines, _report_doc(report)
