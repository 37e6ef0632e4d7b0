"""warpdeg benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-records --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole workload processes, one at a time, and reports
the end-to-end metrics; ``--trace 1`` runs the workload inside this
process with spans around warpdeg's entry points and reports per-layer
metrics (see tracing.py).  Every output is checked against the
benchmark's own reference code.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLE = SRC / "warpdeg" / "data" / "knots.tbl"
SETUP_RUNS = 9  # cold starts per run; setup_s is their median
BARE_COMMAND = [sys.executable, "-c", "pass"]  # the machine speed for cold starts
REFERENCE_BARE_S = 0.05  # about a bare start on an unloaded 2-vCPU Xeon VM
DEADLINE_S = 170  # the whole run, whatever --seconds says
VERIFY_CHECKS = 335
END_TO_END = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}
_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout(f"run exceeded {DEADLINE_S} s")


@dataclass
class Workload:
    name: str
    command: list[str]  # the measured process
    setup_command: list[str]  # the same process on empty input
    items: int  # items per process, for items_per_s
    inputs: int  # inputs per process, for fail_frac
    check: Callable[[str], list[bool]]  # stdout -> per-input correctness
    run_in_process: Callable[[], str]  # the same work in this process


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "warpdeg.cli", *args]


def _cli_in_process(*args: str) -> str:
    from warpdeg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(args))
    return out.getvalue()


def _write_lines(path: Path, texts) -> str:
    path.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    return str(path)


def corpus_records(seed: int, work: Path) -> Workload:
    lines = inputs.corpus(seed)
    path = _write_lines(work / "corpus.txt", (text for text, _ in lines))
    empty = _write_lines(work / "empty.txt", ())
    return Workload(
        "corpus-records",
        _cli("batch", path, "--output", "records"),
        _cli("batch", empty, "--output", "records"),
        len(lines),
        len(lines),
        lambda out: reference.check_records(lines, out),
        lambda: _cli_in_process("batch", path, "--output", "records"),
    )


def large_text(seed: int, work: Path) -> Workload:
    codes = inputs.large_codes(seed)
    path = _write_lines(work / "large.txt", (text for text, _ in codes))
    empty = _write_lines(work / "empty.txt", ())
    return Workload(
        "large-text",
        _cli("batch", path),
        _cli("batch", empty),
        sum(len(visits) // 2 for _, visits in codes),
        len(codes),
        lambda out: reference.check_text(codes, out),
        lambda: _cli_in_process("batch", path),
    )


def _table_codes() -> list[tuple[str, int, list]]:
    """(knot, index, visits) of every bundled diagram, read by the benchmark."""
    lines = [line for line in TABLE.read_text(encoding="utf-8").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    out = []
    for line in lines[1:]:  # the first is the format header
        record = json.loads(line)
        codes = record.get("minimal", []) + record.get("extra", [])
        out.extend((record["name"], index, reference.parse_code(code))
                   for index, code in enumerate(codes))
    return out


def _check_certify(table: list, twist: range, ozawa: range, oracle: list,
                   stdout: str) -> list[bool]:
    """Per certificate, in job order: table, families, oracle, verify."""
    got: dict = {}
    for raw in stdout.splitlines():
        try:
            cert = json.loads(raw)
            key = {"table": ("knot", "diagram"), "families": ("family", "n"),
                   "oracle": ("index",), "verify": ()}[cert["job"]]
            got[(cert["job"], *(cert[k] for k in key))] = cert
        except (ValueError, KeyError, TypeError):
            continue

    knot_dets: dict = {}
    table_certs = []
    for knot, index, visits in table:
        cert = got.get(("table", knot, index))
        if cert is not None and cert.get("crossings") != len(visits) // 2:
            cert = None
        table_certs.append(cert)
        if cert is not None:
            knot_dets.setdefault(knot, set()).add(cert.get("determinant"))
    ok = [cert is not None and len(knot_dets[knot]) == 1
          for cert, (knot, _, _) in zip(table_certs, table)]

    families = []
    for family, span, crossings in (("twist", twist, lambda n: n + 2),
                                    ("ozawa", ozawa, lambda n: 2 * n + 1)):
        for n in span:
            cert = got.get(("families", family, n))
            if cert is not None and (cert.get("crossings") != crossings(n)
                                     or cert.get("determinant") != 2 * n + 1):
                cert = None
            families.append((family, n, cert))
    brackets = {(family, n): cert.get("bracket") for family, n, cert in families
                if cert is not None}
    for family, n, cert in families:
        partner = ("ozawa" if family == "twist" else "twist", n)
        ok.append(cert is not None and (n not in ozawa or
                                        brackets.get(partner) == cert.get("bracket")))

    for index, visits in enumerate(oracle):
        cert = got.get(("oracle", index))
        ok.append(cert is not None and reference.oracle_ok(
            visits, cert.get("changes"), cert.get("witness")))

    cert = got.get(("verify",))
    ok.append(cert is not None and cert.get("rows") == VERIFY_CHECKS
              and cert.get("failed") == [])
    return ok


def certify(seed: int, work: Path) -> Workload:
    import certify as driver  # imports warpdeg, so only once src is on the path

    table = _table_codes()
    oracle = inputs.oracle_codes(seed, reference.brute_degree)
    spec = {"jobs": ["table", "families", "oracle", "verify"],
            "oracle_codes": [inputs.render_gauss(v) for v in oracle]}
    path = work / "certify.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    empty = _write_lines(work / "empty.txt", ())
    script = str(Path(driver.__file__))

    def in_process() -> str:
        out = io.StringIO()
        driver.run_jobs(spec, out.write)
        return out.getvalue()

    twist, ozawa = driver.TWIST_RANGE, driver.OZAWA_RANGE
    certificates = len(table) + len(twist) + len(ozawa) + len(oracle) + 1
    return Workload(
        "certify",
        [sys.executable, script, str(path)],
        [sys.executable, script, empty],
        certificates,
        certificates,
        lambda out: _check_certify(table, twist, ozawa, oracle, out),
        in_process,
    )


WORKLOADS = {"corpus-records": corpus_records, "large-text": large_text,
             "certify": certify}


@dataclass
class Process:
    stdout: str
    wall_s: float
    scaled_s: float  # wall_s at the reference machine speed (spawn.py)
    chunk_s: float  # the mean calibration chunk time around and during it
    peak_rss_mb: float


class Spawner:
    """The helper process (spawn.py) that starts every timed process.

    Start it before building inputs: a child's peak RSS counts the peak of
    the process that forks it, and the spawner stays small.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=_ENV,
        )

    def run(self, command: list[str], work: Path) -> Process:
        """Run one process to completion; its wall time and peak RSS."""
        out_path, err_path = work / "stdout", work / "stderr"
        self.proc.stdin.write(json.dumps({"argv": command, "stdout": str(out_path),
                                          "stderr": str(err_path)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner exited")
        result = json.loads(reply)
        if result["exit"] != 0:  # failed inputs show in the output checks
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            sys.stderr.write(f"exit {result['exit']}: {' '.join(command)}\n{tail}\n")
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return Process(stdout, result["wall_s"], result["scaled_s"], result["chunk_s"],
                       result["maxrss_kb"] / 1024)

    def close(self) -> None:
        """Stop the spawner and wait; on its way out it stops its running child."""
        self.proc.stdin.close()  # an idle spawner exits at the end of its input
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


class Checker:
    """Counts failed inputs per pass; equal outputs are checked once."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.failed_by_digest: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, stdout: str) -> str:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest not in self.failed_by_digest:
            self.failed_by_digest[digest] = self.workload.check(stdout).count(False)
        self.attempted += self.workload.inputs
        self.failed += self.failed_by_digest[digest]
        return digest


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def measure(workload: Workload, seconds: float, work: Path,
            spawner: Spawner) -> tuple[dict, Checker, dict]:
    """End-to-end metrics: medians over cold starts and workload processes.

    Workload times are scaled to the reference machine speed (spawn.py).
    Each cold start is scaled by the bare interpreter starts run just before
    and just after it: ``setup_s`` is its time at the speed at which a bare
    start takes ``REFERENCE_BARE_S``.
    """
    checker = Checker(workload)
    spawner.run(workload.setup_command, work)  # fills the bytecode cache
    bare = [spawner.run(BARE_COMMAND, work).wall_s]
    setup = []
    for _ in range(SETUP_RUNS):
        setup.append(spawner.run(workload.setup_command, work).wall_s)
        bare.append(spawner.run(BARE_COMMAND, work).wall_s)
    # each cold start against the mean of the bare starts on either side
    setup_scaled = [wall * 2 * REFERENCE_BARE_S / (before + after)
                    for wall, before, after in zip(setup, bare, bare[1:])]
    runs: list[Process] = []
    digests = []
    spans: list[float] = []  # the time each process took, pauses included
    began = time.perf_counter()
    while not runs or time.perf_counter() - began + statistics.median(spans) <= seconds:
        started = time.perf_counter()
        process = spawner.run(workload.command, work)
        spans.append(time.perf_counter() - started)
        runs.append(process)
        digests.append(checker.add(process.stdout))
    metrics = {
        "items_per_s": statistics.median(workload.items / p.scaled_s for p in runs),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in runs),
    }
    unscaled = {
        "items_per_s": statistics.median(workload.items / p.wall_s for p in runs),
        "setup_s": statistics.median(setup),
        "chunk_s": statistics.median(p.chunk_s for p in runs),
        "bare_s": statistics.median(bare),
    }
    return metrics, checker, {"processes": len(runs), "stdout_sha256": sorted(set(digests)),
                              "unscaled": unscaled}


def trace(workload: Workload, seconds: float) -> tuple[dict, Checker, dict]:
    checker = Checker(workload)
    metrics, outputs, missing = tracing.run(workload.name, workload.run_in_process,
                                            seconds)
    digests = sorted({checker.add(out) for out in outputs})
    return metrics, checker, {"passes": len(outputs), "stdout_sha256": digests,
                              "missing_entry_points": missing}


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, work: Path,
                 spawner: Spawner | None):
    """One workload: timed through ``spawner``, or traced in-process without one."""
    workload = WORKLOADS[name](seed, work)
    traced = spawner is None
    if traced:
        values, checker, extra = trace(workload, seconds)
        metrics = {key: _metric(values.get(key), unit)
                   for key, (unit, _) in tracing.METRICS.items()}
    else:
        values, checker, extra = measure(workload, seconds, work, spawner)
        metrics = {key: _metric(values[key], unit) for key, unit in END_TO_END.items()}
    provenance = {"workload": name, "seed": seed, "trace": int(traced),
                  "python": platform.python_version(), "nproc": os.cpu_count(),
                  "cpu": _cpu_model(), **extra}
    print(f"workload {name} (seed {seed}, trace {int(traced)})")
    for key, metric in metrics.items():
        shown = "MISSING" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {key} {shown} {metric['unit']}")
    print(f"  fail_frac {checker.failed / checker.attempted:.6g} fraction "
          f"({checker.failed} of {checker.attempted} inputs)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return metrics, checker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "warpdeg" / "cli.py").is_file() or not TABLE.is_file():
        sys.stderr.write(f"error: no warpdeg sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S * (3 if args.workload == "all" else 1))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    spawner = None if args.trace else Spawner()
    try:
        results = {name: run_workload(name, args.seed, args.seconds, work, spawner)
                   for name in names}
    except (Timeout, tracing.TraceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    finally:
        signal.alarm(0)
        if spawner is not None:
            spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(checker.attempted for _, checker in results.values())
    failed = sum(checker.failed for _, checker in results.values())
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{name}.{key}": metric for name, (m, _) in results.items()
                   for key, metric in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
