"""Reference figures: serial against 2 workers, with the machine fingerprint.

Times the two places where the worker pool matters, each as the median
and quartiles of ``REPS`` in-process repetitions after one untimed
warm-up, at ``workers=1`` and ``workers=2``:

* a cold ``generate_fusion`` on counters-9 (``|top|`` = 19683, ``f=1``,
  no store);
* one ``VectorizedRuntime.apply_event_matrix`` over a seeded
  ``(20, 10^6)`` event matrix of the counters-3 ``f=2`` Byzantine
  fusion; the untimed first step is reported too, since the
  benchmark's warm-up round hides it.

Prints one JSON object::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

REPS = 5


def fingerprint() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": [round(v, 4) for v in values]}


def fusion_seconds(workers: int) -> dict:
    from repro import generate_fusion

    machines = run.counters(9)
    generate_fusion(machines, f=1, workers=workers)
    values = []
    for _ in range(REPS):
        start = time.perf_counter()
        generate_fusion(machines, f=1, workers=workers)
        values.append(time.perf_counter() - start)
    return spread(values)


def step_seconds(workers: int) -> dict:
    import numpy as np

    from repro import VectorizedRuntime, generate_fusion

    fusion = generate_fusion(run.counters(3), f=2, byzantine=True, workers=1)
    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 3, size=(20, 10**6), dtype=np.uint8)
    with VectorizedRuntime(fusion.all_machines, 10**6, workers=workers) as runtime:
        start = time.perf_counter()
        runtime.apply_event_matrix(matrix)
        first = time.perf_counter() - start
        values = []
        for _ in range(REPS):
            start = time.perf_counter()
            runtime.apply_event_matrix(matrix)
            values.append(time.perf_counter() - start)
    return dict(spread(values), first=first)


def main() -> int:
    run.clear_knobs()
    sys.path.insert(0, run.SRC)
    figures = {"fingerprint": fingerprint(), "reps": REPS}
    for workers in (1, 2):
        figures["counters9_fuse_s_workers%d" % workers] = fusion_seconds(workers)
        figures["step_1e6x20_s_workers%d" % workers] = step_seconds(workers)
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
