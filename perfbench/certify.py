"""The certify workload's driver process: the public library API only.

Usage: python3 perfbench/certify.py JOBFILE

JOBFILE is empty (no jobs: the cold start alone) or a JSON object whose
``jobs`` list names any of ``table``, ``families``, ``oracle`` and
``verify``, with the subset-search inputs under ``oracle_codes``.  Every
certificate is one JSON line on stdout, in job order; the output holds no
timings, so equal inputs give byte-identical output.
"""

from __future__ import annotations

import json
import sys

import warpdeg
from warpdeg import (
    determinant,
    kauffman_bracket,
    load_table,
    min_changes_to_monotone,
    ozawa_twist,
    parse_gauss,
    twist_minimal,
    verify_paper,
)

# Adopting a parsed code as a diagram; the identity once codes and
# diagrams are one type.
from_gauss = getattr(warpdeg, "from_gauss", lambda code: code)

TWIST_RANGE = range(2, 13)  # twist_minimal(n) has n + 2 crossings
OZAWA_RANGE = range(2, 7)  # ozawa_twist(n) has 2n + 1 crossings


def _bracket_certificate(diagram) -> dict:
    return {
        "crossings": diagram.crossings,
        "bracket": [list(term) for term in kauffman_bracket(diagram).coefficients],
        "determinant": determinant(diagram),
    }


def _table(spec, emit) -> None:
    for entry in load_table():
        diagrams = entry.minimal_diagrams + entry.extra_diagrams
        for index, diagram in enumerate(diagrams):
            emit({"job": "table", "knot": entry.name, "diagram": index,
                  **_bracket_certificate(diagram)})


def _families(spec, emit) -> None:
    for family, build, span in (("twist", twist_minimal, TWIST_RANGE),
                                ("ozawa", ozawa_twist, OZAWA_RANGE)):
        for n in span:
            emit({"job": "families", "family": family, "n": n,
                  **_bracket_certificate(build(n))})


def _oracle(spec, emit) -> None:
    for index, code in enumerate(spec["oracle_codes"]):
        result = min_changes_to_monotone(from_gauss(parse_gauss(code)))
        emit({"job": "oracle", "index": index, "changes": result.changes,
              "witness": list(result.witness), "searched": result.nodes_searched})


def _verify(spec, emit) -> None:
    report = verify_paper(load_table())
    emit({"job": "verify", "rows": len(report.rows),
          "failed": [f"{row.check}:{row.scope}" for row in report.failures]})


JOBS = {"table": _table, "families": _families, "oracle": _oracle,
        "verify": _verify}


def run_jobs(spec: dict, write) -> None:
    """Run the jobs of ``spec``, passing each output line to ``write``."""
    def emit(obj: dict) -> None:
        write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")

    for name in spec.get("jobs", ()):
        JOBS[name](spec, emit)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: certify.py JOBFILE\n")
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        text = handle.read()
    run_jobs(json.loads(text) if text.strip() else {}, sys.stdout.write)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
