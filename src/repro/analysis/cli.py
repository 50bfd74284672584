"""``python -m repro.analysis`` -- the simlint command line.

Exit codes: 0 clean, 1 any finding or parse error, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import clockwrite
from repro.analysis.runner import AnalysisReport, analyze_paths
from repro.analysis.version import RULESET_VERSION

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: the simulation-clock rule for the H-RMC "
                    "protocol stack")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to analyze "
                        "(default: src/repro)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default: text)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--ruleset-version", action="store_true",
                   help="print the rule-set version and exit")
    return p


def render_text(report: AnalysisReport) -> str:
    out = [f"{path}: PARSE parse error: {err}"
           for path, err in report.parse_errors]
    out += [finding.format_text() for finding in report.findings]
    gate = len(report.findings) + len(report.parse_errors)
    out += ["", f"simlint ({RULESET_VERSION}): {report.files_scanned} "
                f"files, {gate} finding(s)"]
    return "\n".join(out) + "\n"


def render_json(report: AnalysisReport) -> str:
    doc = {
        "ruleset": RULESET_VERSION,
        "files_scanned": report.files_scanned,
        "findings": [f.as_dict() for f in report.findings],
        "parse_errors": [{"path": p, "error": e}
                         for p, e in report.parse_errors],
        "ok": report.ok,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.ruleset_version:
        print(RULESET_VERSION)
        return 0
    if args.list_rules:
        print(f"{clockwrite.RULE}  {clockwrite.TITLE}")
        print(f"      fix: {clockwrite.HINT}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"simlint: no such path: {p}", file=sys.stderr)
        return 2

    report = analyze_paths(paths)
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(report))
    return 0 if report.ok else 1
