#!/usr/bin/env python3
"""Generate-stage breakdown at several model sizes.

    python3 benchmarks/scaling.py

For each of SIZES it builds one seeded model (same shape as the ``generate``
workload, with that many interfaces, bindings and services) and runs
parse_model -> emit_wsdl -> write_canonical REPEATS times under the span
recorder.  ``emit_wsdl`` calls ``validate_model`` once, so the
``validate_model`` column is one validation per model.  It prints the median
self time of each stage in milliseconds, so a stage that grows faster than
the model shows as a rising ms-per-interface.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
import inputs  # noqa: E402
import spans   # noqa: E402

SIZES = (50, 200, 800, 1600)
REPEATS = 3
SEED = 1
STAGES = ("modelfile.parse_model", "model.validate_model", "emit.emit_wsdl",
          "algebra.normalize", "xmltree.write_canonical")


def main() -> int:
    from wspolicy import emit, modelfile, xmltree

    tracer = spans.Tracer()
    spans.install(tracer)
    print("interfaces  " + "  ".join(f"{s:>24s}" for s in STAGES) + "  total_ms")
    for size in SIZES:
        case = inputs.make_model(inputs.workload_rng("scaling", SEED), size)
        rows = []
        for _ in range(REPEATS):
            tracer.spans.clear()
            tracer.phase = "op"
            start = time.perf_counter()
            parsed = modelfile.parse_model(case.data)
            for _name, doc in emit.emit_wsdl(parsed):
                xmltree.write_canonical(doc)
            total = time.perf_counter() - start
            tracer.phase = None
            times = tracer.self_times()
            rows.append([times.get(("op", s), 0.0) * 1000 for s in STAGES] + [total * 1000])
        medians = [statistics.median(col) for col in zip(*rows)]
        print(f"{size:10d}  " + "  ".join(f"{m:24.1f}" for m in medians[:-1]) + f"  {medians[-1]:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
