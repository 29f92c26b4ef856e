"""Span and counter recording around the public functions of ``wspolicy``.

``install`` replaces each function where the calling module binds it (for
example ``wspolicy.emit.normalize`` as well as ``wspolicy.algebra.normalize``,
which ``algebra`` itself calls for nested policies), so calls made inside the
program are seen too.  ``src/`` is not changed: the wrappers live here.

Spans are ``[name, start, end, parent, phase, leaf_s]`` lists kept in memory
until the run ends.  ``leaf_s`` is time spent in hot leaf calls
(``names.normalize_uri``) made directly inside the span, plus the leaf
wrapper's own cost, measured once per process by ``leaf_overhead``; those
calls are counted and timed but not stored as spans, since a query makes
thousands of them.

The hot pairwise checks of ``algebra`` are only counted, and only while
``install_counters`` has wrapped them: a run counts them in one pass of its
own and times its spans in other passes, so the counting wrappers' cost never
lands in a span.

Run as a script, this module executes one traced ``wspolicy`` CLI command and
writes its spans and counters to a JSON file, recorded under the phase given
(``op``, or ``count`` to count the pairwise checks as well):

    python benchmarks/spans.py OUT.json op -- generate model.json --output-dir out
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name, extra accounting)
TRACED = (
    ("modelfile", "parse_model", "modelfile.parse_model", None),
    ("model", "validate_model", "model.validate_model", None),
    ("emit", "validate_model", "model.validate_model", None),
    ("emit", "emit_wsdl", "emit.emit_wsdl", None),
    ("emit", "normalize", "algebra.normalize", "alternatives"),
    ("xmltree", "write_canonical", "xmltree.write_canonical", "bytes"),
    ("xmltree", "parse_xml", "xmltree.parse_xml", None),
    ("reader", "parse_xml", "xmltree.parse_xml", None),
    ("reader", "parse_wsdl", "reader.parse_wsdl", None),
    ("reader", "parse_policy_element", "reader.parse_policy", None),
    ("algebra", "normalize", "algebra.normalize", "alternatives"),
    ("algebra", "intersect", "algebra.intersect", None),
    ("cli", "parse_model", "modelfile.parse_model", None),
    ("cli", "validate_model", "model.validate_model", None),
    ("cli", "emit_wsdl", "emit.emit_wsdl", None),
    ("cli", "write_canonical", "xmltree.write_canonical", "bytes"),
    ("cli", "parse_xml", "xmltree.parse_xml", None),
    ("cli", "parse_wsdl", "reader.parse_wsdl", None),
    ("cli", "parse_policy_element", "reader.parse_policy", None),
    ("cli", "normalize", "algebra.normalize", "alternatives"),
    ("cli", "intersect_forms", "algebra.intersect", None),
)
# Hot calls: counted, never stored as spans; wrapped only by install_counters.
COUNTED = (
    ("algebra", "alternatives_compatible", "algebra.pair_checks"),
    ("cli", "alternatives_compatible", "algebra.pair_checks"),
    ("algebra", "assertions_compatible", "algebra.instance_checks"),
    ("cli", "assertions_compatible", "algebra.instance_checks"),
)
LEAF_TIMED = (("algebra", "normalize_uri", "names.normalize_uri"),)
CALIBRATION_CALLS = 20000   # per repeat of leaf_overhead
CALIBRATION_REPEATS = 7


class Tracer:
    """In-memory spans and counters; records only while ``phase`` is set."""

    def __init__(self, leaf_cost: float = 0.0):
        self.spans: list[list] = []
        self.counters: Counter = Counter()      # (phase, name) -> value
        self.phase: str | None = None
        self._stack: list[int] = []
        self.leaf_cost = leaf_cost              # seconds per leaf call, see leaf_overhead

    def span(self, name: str, fn, extra: str | None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, phase, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra == "alternatives":
                counters[(phase, "algebra.alternatives")] += len(result.alternatives)
            elif extra == "bytes":
                counters[(phase, "xmltree.bytes_written")] += len(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.phase is not None:
                counters[(self.phase, name)] += 1
                if result:
                    counters[(self.phase, name + "_hit")] += 1
            return result

        return wrapper

    def leaf(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        calls, seconds = name + "_calls", name + "_s"
        cost = self.leaf_cost

        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            counters[(phase, calls)] += 1
            counters[(phase, seconds)] += elapsed
            if stack:
                spans[stack[-1]][5] += elapsed + cost
            return result

        return wrapper

    def ingest(self, spans: list[list], counters: list[list]):
        """Append another process's spans (same monotonic clock) and counters."""
        offset = len(self.spans)
        for name, start, end, parent, phase, leaf in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, phase, leaf])
        for phase, name, value in counters:
            self.counters[(phase, name)] += value

    def self_times(self) -> dict:
        """(phase, span name) -> total self time in seconds."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _phase, _leaf in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _parent, phase, leaf), child in zip(self.spans, covered):
            out[(phase, name)] += (end - start) - child - leaf
        return out

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "counters": [[p, n, v] for (p, n), v in sorted(self.counters.items())],
            }, fh)


def leaf_overhead() -> float:
    """Seconds a leaf wrapper adds to its caller per call, beyond the time it
    records: the median over CALIBRATION_REPEATS of (wrapped - bare) time of
    a no-op, minus what the wrapper recorded for it."""
    probe = Tracer()
    probe.phase = "probe"
    probe.spans.append(["probe", 0.0, 0.0, -1, "probe", 0.0])
    probe._stack.append(0)

    def noop(x):
        return x

    wrapped = probe.leaf("probe", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(CALIBRATION_REPEATS):
        recorded = probe.spans[0][5]
        t0 = clock()
        for _ in range(CALIBRATION_CALLS):
            noop(0)
        t1 = clock()
        for _ in range(CALIBRATION_CALLS):
            wrapped(0)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0) - (probe.spans[0][5] - recorded)) / CALIBRATION_CALLS)
    return max(sorted(costs)[len(costs) // 2], 0.0)   # the median of an odd count


def _module(name: str):
    import importlib
    return importlib.import_module(f"wspolicy.{name}")


def install(tracer: Tracer):
    """Wrap every span and leaf binding; the wspolicy modules must be importable."""
    for mod, attr, name, extra in TRACED:
        m = _module(mod)
        setattr(m, attr, tracer.span(name, getattr(m, attr), extra))
    for mod, attr, name in LEAF_TIMED:
        m = _module(mod)
        setattr(m, attr, tracer.leaf(name, getattr(m, attr)))


def install_counters(tracer: Tracer):
    """Wrap the hot pairwise checks with counters; returns a function that
    puts the unwrapped functions back."""
    saved = []
    for mod, attr, name in COUNTED:
        m = _module(mod)
        fn = getattr(m, attr)
        saved.append((m, attr, fn))
        setattr(m, attr, tracer.counted(name, fn))

    def remove():
        for m, attr, fn in saved:
            setattr(m, attr, fn)

    return remove


def _run_traced_cli(out_path: str, phase: str, argv: list[str]) -> int:
    import wspolicy.cli

    # No leaf calibration here: it would cost a short-lived child more than
    # the dozen normalize_uri calls a CLI command makes.
    tracer = Tracer()
    install(tracer)
    if phase == "count":
        install_counters(tracer)
    tracer.phase = phase
    sys.argv = ["wspolicy"] + argv
    code = 0
    try:
        wspolicy.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.phase = None
        tracer.dump(Path(out_path))
    return code


if __name__ == "__main__":
    out, phase, sep, *rest = sys.argv[1:]
    if sep != "--" or phase not in ("op", "count"):
        sys.exit("usage: spans.py OUT.json op|count -- <wspolicy arguments>")
    sys.exit(_run_traced_cli(out, phase, rest))
