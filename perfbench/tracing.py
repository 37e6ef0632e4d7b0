"""The traced run: spans around warpdeg's public entry points, per layer.

``Tracer.install`` replaces each entry point below with a wrapper at every
module binding that holds it (``warpdeg.cli`` holds its own copies of
``summary`` and ``profile``, the package ``__init__`` holds others), so
calls between modules are seen too.  A wrapper records one span
``(layer, name, start, end, parent, size, extra)`` in memory; ``parent``
is the index of the innermost span open when the call began.  A layer's
self time is the duration of its spans minus the part their child spans
cover.  An entry point that no longer exists is reported as missing.
"""

from __future__ import annotations

import importlib
import math
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

import inputs
import reference

# layer -> entry points, named as module:function
LAYERS = {
    "parse": ("warpdeg.codes:detect_notation", "warpdeg.codes:parse_gauss",
              "warpdeg.codes:parse_dt", "warpdeg.codes:dt_to_gauss"),
    "normalize": ("warpdeg.codes:_build_gauss",),
    "engine": ("warpdeg.warping:profile", "warpdeg.warping:summary"),
    "diagram": ("warpdeg.diagram:reverse", "warpdeg.diagram:from_gauss"),
    "canonical": ("warpdeg.codes:canonical", "warpdeg.codes:serialize"),
    "emit": ("warpdeg.cli:_record", "warpdeg.cli:_emit"),
    "bracket": ("warpdeg.bracket:kauffman_bracket", "warpdeg.bracket:determinant"),
    "oracle": ("warpdeg.oracle:min_changes_to_monotone",),
    "table": ("warpdeg.table:load_table", "warpdeg.table:verify_paper"),
}

# Work counts read off a return value.
_EXTRA = {
    "warpdeg.oracle:min_changes_to_monotone": lambda r: r.nodes_searched,
    "warpdeg.table:verify_paper": lambda r: len(r.rows),
}

# Entry points each workload must call; a silent wrapper fails the run.
REQUIRED = {
    "corpus-records": tuple(
        point for layer in ("parse", "normalize", "engine", "diagram",
                            "canonical", "emit")
        for point in LAYERS[layer]
    ),
    "large-text": ("warpdeg.codes:detect_notation", "warpdeg.codes:parse_gauss",
                   "warpdeg.codes:_build_gauss", "warpdeg.warping:profile",
                   "warpdeg.warping:summary", "warpdeg.diagram:reverse",
                   "warpdeg.diagram:from_gauss", "warpdeg.cli:_emit"),
    "certify": ("warpdeg.codes:parse_gauss", "warpdeg.codes:_build_gauss",
                "warpdeg.warping:profile", "warpdeg.warping:summary",
                "warpdeg.diagram:reverse", "warpdeg.diagram:from_gauss",
                *LAYERS["bracket"], *LAYERS["oracle"], *LAYERS["table"]),
}

# name -> (unit, the entry points it is computed from)
METRICS = {
    "parse.self_s": ("s", LAYERS["parse"]),
    "parse.calls": ("count", LAYERS["parse"]),
    "parse.scaling_exp": ("exponent", LAYERS["parse"]),
    "normalize.self_s": ("s", LAYERS["normalize"]),
    "normalize.calls_per_diagram": ("calls/diagram",
                                    ("warpdeg.codes:_build_gauss",
                                     "warpdeg.diagram:from_gauss")),
    "engine.self_s": ("s", LAYERS["engine"]),
    "engine.profile_calls_per_diagram": ("calls/diagram",
                                         ("warpdeg.warping:profile",
                                          "warpdeg.diagram:from_gauss")),
    "engine.scaling_exp": ("exponent", LAYERS["engine"]),
    "engine.probe_s.profile.c10000": ("s", ("warpdeg.warping:profile",)),
    "engine.probe_s.profile.c100000": ("s", ("warpdeg.warping:profile",)),
    "engine.probe_s.summary.c10000": ("s", ("warpdeg.warping:summary",)),
    "engine.probe_s.summary.c100000": ("s", ("warpdeg.warping:summary",)),
    "diagram.self_s": ("s", LAYERS["diagram"]),
    "diagram.reverse_calls": ("count", ("warpdeg.diagram:reverse",)),
    "canonical.self_s": ("s", LAYERS["canonical"]),
    "canonical.calls": ("count", LAYERS["canonical"]),
    "canonical.probe_s.c100": ("s", ("warpdeg.codes:serialize",)),
    "canonical.probe_s.c400": ("s", ("warpdeg.codes:serialize",)),
    "canonical.probe_s.c1000": ("s", ("warpdeg.codes:serialize",)),
    "emit.self_s": ("s", LAYERS["emit"]),
    "emit.records": ("count", ("warpdeg.cli:_record",)),
    "bracket.self_s": ("s", LAYERS["bracket"]),
    "bracket.calls": ("count", LAYERS["bracket"]),
    "bracket.probe_s.c10": ("s", ("warpdeg.bracket:kauffman_bracket",)),
    "bracket.probe_s.c12": ("s", ("warpdeg.bracket:kauffman_bracket",)),
    "bracket.probe_s.c14": ("s", ("warpdeg.bracket:kauffman_bracket",)),
    "oracle.self_s": ("s", LAYERS["oracle"]),
    "oracle.subsets_searched": ("count", LAYERS["oracle"]),
    "oracle.witness_ratio": ("witnesses/subset", LAYERS["oracle"]),
    "oracle.probe_s.c12": ("s", LAYERS["oracle"]),
    "oracle.probe_s.c14": ("s", LAYERS["oracle"]),
    "oracle.probe_s.c16": ("s", LAYERS["oracle"]),
    "table.load_s": ("s", ("warpdeg.table:load_table",)),
    "table.verify_s": ("s", ("warpdeg.table:verify_paper",)),
    "table.checks": ("count", ("warpdeg.table:verify_paper",)),
    "table.summary_calls": ("count", ("warpdeg.warping:summary",
                                      *LAYERS["table"])),
    "unattributed_s": ("s", ()),
    "trace.overhead_frac": ("fraction", ()),
}


class TraceError(Exception):
    """A wrapper that must fire on the workload never did."""


def _resolve(point: str):
    module_name, attr = point.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


def _size(args, result):
    """Crossing count of the call's diagram, when it has one."""
    for value in (args[0] if args else None, result):
        crossings = getattr(value, "crossings", None)
        if isinstance(crossings, int):
            return crossings
    return None


class Tracer:
    """Wraps the entry points in LAYERS and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.missing = [point for layer in LAYERS.values() for point in layer
                        if _resolve(point) is None]
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, layer: str, point: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extra = _EXTRA.get(point)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (layer, point, start, clock(), parent, None, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (layer, point, start, end, parent, _size(args, result),
                            extra(result) if extra else None)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, points in LAYERS.items():
            for point in points:
                fn = _resolve(point)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(layer, point, fn))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._patches.append((module, name, value))

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patches):
            setattr(module, name, value)
        self._patches.clear()


def _slope(points: dict) -> float | None:
    """Least-squares slope of log(mean self time) against log(size)."""
    xs, ys = [], []
    for size, times in points.items():
        mean = sum(times) / len(times)
        if size >= 1 and mean > 0:
            xs.append(math.log(size))
            ys.append(math.log(mean))
    if len(xs) < 2:
        return None
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def analyse(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    child = [0] * len(spans)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns: Counter = Counter()
    entries: Counter = Counter()  # calls into a layer from outside it
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    extra: Counter = Counter()
    sized = defaultdict(lambda: defaultdict(list))
    under_table = [False] * len(spans)
    table_summaries = 0
    for i, (layer, point, start, end, parent, size, more) in enumerate(spans):
        own = end - start - child[i]
        self_ns[layer] += own
        calls[point] += 1
        if parent < 0 or spans[parent][0] != layer:
            entries[layer] += 1
            inclusive[point] += end - start
        if size is not None:
            sized[layer][size].append(own)
        if more is not None:
            extra[point] += more
        under_table[i] = layer == "table" or (parent >= 0 and under_table[parent])
        if point == "warpdeg.warping:summary" and parent >= 0 and under_table[parent]:
            table_summaries += 1

    diagrams = calls["warpdeg.diagram:from_gauss"]
    subsets = extra["warpdeg.oracle:min_changes_to_monotone"]
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS
           if f"{layer}.self_s" in METRICS}
    out.update({
        "parse.calls": entries["parse"],
        "parse.scaling_exp": _slope(sized["parse"]),
        "normalize.calls_per_diagram":
            calls["warpdeg.codes:_build_gauss"] / diagrams if diagrams else None,
        "engine.profile_calls_per_diagram":
            calls["warpdeg.warping:profile"] / diagrams if diagrams else None,
        "engine.scaling_exp": _slope(sized["engine"]),
        "diagram.reverse_calls": calls["warpdeg.diagram:reverse"],
        "canonical.calls": entries["canonical"],
        "emit.records": calls["warpdeg.cli:_record"],
        "bracket.calls": entries["bracket"],
        "oracle.subsets_searched": subsets,
        "oracle.witness_ratio":
            calls["warpdeg.oracle:min_changes_to_monotone"] / subsets if subsets else 0.0,
        "table.load_s": inclusive["warpdeg.table:load_table"] / 1e9,
        "table.verify_s": inclusive["warpdeg.table:verify_paper"] / 1e9,
        "table.checks": extra["warpdeg.table:verify_paper"],
        "table.summary_calls": table_summaries,
        "unattributed_s": wall_s - sum(self_ns.values()) / 1e9,
    })
    return out


def _timed(fn, arg) -> float:
    """Median seconds of one call: up to 5 calls, stopping past 0.5 s."""
    times: list[float] = []
    while len(times) < 5 and sum(times) < 0.5:
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes() -> dict:
    """Single public calls at fixed sizes, on inputs from fixed seeds.

    The probe inputs do not depend on the workload seed, so each probe
    reads the same on every run.
    """
    from certify import from_gauss
    from warpdeg import (kauffman_bracket, min_changes_to_monotone, parse_gauss,
                         profile, serialize, summary, twist_minimal)

    def diagram(c: int, visits=None):
        visits = visits or inputs.matching_code(random.Random(f"probe-{c}"), c)
        return from_gauss(parse_gauss(inputs.render_gauss(visits)))

    def oracle_input(c: int):
        rng = random.Random(f"probe-oracle-{c}")
        while True:
            visits = inputs.first_appearance(inputs.matching_code(rng, c))
            if reference.brute_degree(visits) == c // 3:
                return diagram(c, visits)

    out = {}
    for c in (10_000, 100_000):
        d = diagram(c)
        out[f"engine.probe_s.profile.c{c}"] = _timed(profile, d)
        out[f"engine.probe_s.summary.c{c}"] = _timed(summary, d)
    for c in (100, 400, 1000):
        out[f"canonical.probe_s.c{c}"] = _timed(serialize, parse_gauss(
            inputs.render_gauss(inputs.matching_code(random.Random(f"probe-{c}"), c))))
    for c in (10, 12, 14):
        out[f"bracket.probe_s.c{c}"] = _timed(kauffman_bracket, twist_minimal(c - 2))
    for c in (12, 14, 16):
        out[f"oracle.probe_s.c{c}"] = _timed(min_changes_to_monotone, oracle_input(c))
    return out


def run(workload: str, run_pass, seconds: float) -> tuple[dict, list, list]:
    """Traced and untraced passes of ``run_pass``, then the probes.

    ``run_pass`` runs the workload once in this process and returns its
    stdout.  Passes alternate untraced and traced after one
    untraced warm-up, until ``seconds`` would be exceeded.  Returns the
    metrics (each a value, or None when missing), the outputs of every
    pass, and the missing entry points.
    """
    tracer = Tracer()
    outputs = [run_pass()]
    plain: list[float] = []
    traced: list[float] = []
    passes: list[dict] = []
    silent: set[str] = set()
    began = time.perf_counter()
    while not traced or (time.perf_counter() - began
                         + statistics.median(plain) + statistics.median(traced)
                         <= seconds):
        start = time.perf_counter()
        outputs.append(run_pass())
        plain.append(time.perf_counter() - start)

        tracer.spans.clear()
        tracer.install()
        try:
            start = time.perf_counter()
            outputs.append(run_pass())
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        fired = {span[1] for span in tracer.spans}
        silent |= {p for p in REQUIRED[workload] if p not in fired}
        passes.append(analyse(tracer.spans, traced[-1]))
    tracer.spans.clear()
    if silent - set(tracer.missing):
        raise TraceError(
            "entry points never called on " + workload + ": "
            + ", ".join(sorted(silent - set(tracer.missing)))
        )

    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        metrics[name] = None if None in values else statistics.median(values)
    try:
        metrics.update(probes())
    except ImportError:  # a probed public name is gone; the probes read missing
        pass
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1
    )
    missing = set(tracer.missing)
    for name, (_, points) in METRICS.items():
        if missing.intersection(points):
            metrics[name] = None
    return metrics, outputs, sorted(missing)
