"""Quick self-test of the benchmark at tiny sizes.

Runs every workload in both modes at ``run.QUICK`` sizes (counters-5,
mesi+counters-5, 10^4 instances, short zoo workloads) through the same
code as the benchmark, then feeds each independent output check a
wrong output and requires it to fail, and finally requires ``run.py``
to refuse, without printing a result, when the program source is
missing::

    python3 perfbench/selftest.py

Exits 0 when everything holds; prints the first failure otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def expect_failure(check, *args) -> None:
    try:
        check(*args)
    except run.CheckFailed:
        return
    raise AssertionError("%s accepted a wrong output" % check.__name__)


def test_workloads() -> None:
    per_round = run.ops_per_round(run.QUICK)
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.measure(name, seed=7, seconds=0, trace=trace,
                                 sizes=run.QUICK, log=lambda line: None)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] == (run.MIN_ROUNDS + 1) * per_round + 1
            units = run.PER_LAYER_UNITS if trace else run.END_TO_END
            assert set(result["metrics"]) == set(units), (name, trace)
            if not trace:
                for metric, entry in result["metrics"].items():
                    assert entry["value"] > 0, (name, metric, entry)


def test_fusion_checks() -> None:
    from repro import generate_fusion

    machines = run.counters(5)
    result = generate_fusion(machines, f=1, workers=1)
    run.check_fusion(result, len(machines))
    size = result.product.num_states

    def with_labels(labels):
        return SimpleNamespace(product=result.product,
                               partitions=(SimpleNamespace(labels=labels),))

    import numpy as np

    lone = np.zeros(size, dtype=np.int64)
    lone[1] = 1  # {t1} against the rest: not closed
    expect_failure(run.check_fusion, with_labels(lone), len(machines))
    # One block is closed but adds no redundancy.
    expect_failure(run.check_fusion, with_labels(np.zeros(size, np.int64)), len(machines))
    # With no original that can be lost, the backup cannot be minimal.
    expect_failure(run.check_fusion, result, 0)
    other = generate_fusion(run.counters(4), f=1, workers=1)
    assert run.fusion_bytes(other) != run.fusion_bytes(result)


def test_fleet_and_simulation_checks() -> None:
    setup = run.Setup(run.WORKLOADS["pooledfuse-serialstep"], run.QUICK)
    try:
        this = run.Round(setup, seed=3, index=0, trace=False)
        this.fleet()
        run.check_fleet(setup)
        setup.counts[0, 0] = (setup.counts[0, 0] + 1) % 3
        expect_failure(run.check_fleet, setup)
        setup.counts[0, 0] = (setup.counts[0, 0] + 2) % 3
        run.check_fleet(setup)
        setup.runtime.crash_instances(0, [5])
        expect_failure(run.check_fleet, setup)
    finally:
        setup.close()

    from repro.simulation import DistributedSystem

    originals = setup.zoo_fusion.originals
    system = DistributedSystem.with_fusion_backups(
        setup.zoo, f=2, fusion=setup.zoo_fusion, engine="vectorized")
    workload = list("abcab")
    report = system.run(workload)
    run.check_simulation(report, system, originals, workload)
    expect_failure(run.check_simulation, report, system, originals, list("aaaa"))
    degraded = SimpleNamespace(status="degraded", culprits=("x",), consistent=True)
    expect_failure(run.check_simulation, degraded, system, originals, workload)


def test_refuses_without_source() -> None:
    bare = os.path.join(run.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             next(iter(run.WORKLOADS)), "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0, done
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)


def main() -> int:
    run.clear_knobs()
    # 10^4 instances sit below the runtime's default pooling threshold;
    # lower it so the quick fleet still takes the pooled step.
    os.environ["REPRO_RUNTIME_POOL_MIN_INSTANCES"] = "1"
    sys.path.insert(0, run.SRC)
    run.adopt_orphans()
    try:
        for test in (test_workloads, test_fusion_checks,
                     test_fleet_and_simulation_checks, test_refuses_without_source):
            start = time.perf_counter()
            test()
            print("ok %-36s %.1fs" % (test.__name__, time.perf_counter() - start))
    finally:
        run.stop_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
