"""End-to-end benchmark of fusion generation and the online fleet.

One run sets the program up, plays one untimed warm-up round, then
repeats timed rounds for ``--seconds`` seconds and prints every metric
by name and unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload serialfuse-pooledstep --seed 1 \
        --seconds 50 --trace 0

A round runs the whole pipeline, each phase through the public API:

1. fusion: one cold ``generate_fusion`` call into a fresh temporary
   ``ArtifactStore``, then ``Sizes.warm_calls`` warm calls served from it;
2. step: ``VectorizedRuntime.apply_event_matrix`` over a seeded
   ``(steps, instances)`` event matrix;
3. recovery: ``recover_fleet`` over a crash cohort (two crashed machines
   per instance) and over the complementary Byzantine cohort (one liar);
4. simulation: ``Sizes.sim_runs`` supervised ``DistributedSystem`` runs of the
   tcp+mesi+parity+counter zoo under a seeded drop/reorder/partition
   schedule and a seeded 2-crash plan.

The two workloads run the same pipeline with the worker pool on opposite
halves (see ``WORKLOADS``), so removing or re-defaulting the pool moves
them in opposite directions.  Every phase's output is checked by an
independent computation (``check_fusion``, ``check_fleet``,
``check_simulation``); an operation fails if it raises or its check
fails.  With ``--trace 1`` the same rounds run with the fusion
``Stopwatch`` on and timers around each public call, and the per-layer
metrics are printed instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import astuple, dataclass
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: The zoo's shared alphabet and the fabric schedule of
#: ``benchmarks/bench_network_chaos_smoke.py``; only the seed varies.
ZOO_EVENTS = ("a", "b", "c")
NET_CHAOS = "drop=0.25,reorder=0.15,partition=0.05,partition_ticks=4,seed=%d"

#: Fewest timed rounds a run makes, however short ``--seconds`` is.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one round; ``FULL`` is the benchmark, ``QUICK`` the
    self-test (``perfbench/selftest.py``)."""

    mesi_counters: int  #: counters beside MESI in the serial fusion
    counters: int  #: counters in the pooled fusion
    instances: int  #: fleet width of the vectorized runtime
    serial_steps: int  #: events per instance per round, serial step
    pooled_steps: int  #: events per instance per round, pooled step
    warm_calls: int  #: warm fusion calls per round
    sim_runs: int  #: supervised simulation runs per round
    sim_events: int  #: events per simulation run


FULL = Sizes(7, 9, 1_000_000, 10, 20, 4, 20, 200)
QUICK = Sizes(5, 5, 10_000, 2, 4, 2, 2, 40)


@dataclass(frozen=True)
class Workload:
    """Which fusion input a workload fuses and where the pool runs; the
    reasons for each workload are in ``BENCHMARK.json``."""

    fusion: str  #: "mesi-counters" or "counters"
    fuse_workers: int
    step_workers: int


WORKLOADS: Dict[str, Workload] = {
    "serialfuse-pooledstep": Workload("mesi-counters", fuse_workers=1, step_workers=2),
    "pooledfuse-serialstep": Workload("counters", fuse_workers=2, step_workers=1),
}


class CheckFailed(Exception):
    """An output differs from its independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
class Timer:
    """``with Timer() as timer: ...`` leaves the block's wall time in
    ``timer.seconds``."""

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.seconds = time.perf_counter() - self.start


def children_cpu_s() -> float:
    """CPU seconds used so far by this process's children.

    Reaped children (the fusion pool's workers, reaped when
    ``generate_fusion`` closes its pool) are in ``RUSAGE_CHILDREN``; live
    ones (the step pool's workers) are read from ``/proc``.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = usage.ru_utime + usage.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids = handle.read().split()
        except OSError:
            continue
        for pid in pids:
            try:
                with open("/proc/%s/stat" % pid) as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += (int(fields[11]) + int(fields[12])) / tick  # utime, stime
    return total


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def counters(n: int):
    from repro.machines import mod_counter

    return [
        mod_counter(3, count_event=e, events=tuple(range(n)), name="c%d" % e)
        for e in range(n)
    ]


def mesi_counters(n: int):
    from repro.machines import mesi

    return [mesi()] + counters(n)


def zoo():
    from repro.machines import mesi, mod_counter, parity_checker, tcp_simplified

    return [
        tcp_simplified(events=ZOO_EVENTS),
        mesi(events=ZOO_EVENTS),
        parity_checker("a", events=ZOO_EVENTS, name="parity-a"),
        mod_counter(3, count_event="b", events=ZOO_EVENTS, name="count-b"),
    ]


class Setup:
    """Everything a round needs: imports, machines, the online fusions,
    the runtime."""

    def __init__(self, workload: Workload, sizes: Sizes) -> None:
        import repro.io.store  # noqa: F401  (used by every round)
        import repro.simulation  # noqa: F401
        from repro import BatchRecovery, VectorizedRuntime, generate_fusion
        from repro.core.shm import SharedWorkerPool

        self.sizes = sizes
        self.workload = workload
        if workload.fusion == "counters":
            self.fuse_machines = counters(sizes.counters)
        else:
            self.fuse_machines = mesi_counters(sizes.mesi_counters)
        fleet = counters(3)
        self.fleet_fusion = generate_fusion(fleet, f=2, byzantine=True, workers=1)
        self.zoo = zoo()
        self.zoo_fusion = generate_fusion(self.zoo, f=2, workers=1)
        self.pool = (
            SharedWorkerPool(workload.step_workers)
            if workload.step_workers > 1
            else None
        )
        self.runtime = VectorizedRuntime(
            self.fleet_fusion.all_machines, sizes.instances, pool=self.pool, workers=1
        )
        self.recovery = BatchRecovery(self.fleet_fusion.product, self.fleet_fusion.backups)
        self.expected = fleet_truth_tables(self.fleet_fusion, self.runtime.alphabet)
        # Occurrences of each event index per instance, kept mod 3: the
        # closed form of every original counter's state.
        import numpy as np

        self.counts = np.zeros((len(self.runtime.alphabet), sizes.instances), np.uint8)

    def close(self) -> None:
        self.runtime.close()
        if self.pool is not None:
            self.pool.close()


#: A fresh interpreter that builds one ``Setup`` and prints ``ready``.
SETUP_CHILD = """
import sys
sys.path[:0] = [%r, %r]
import run
setup = run.Setup(run.WORKLOADS[%r], run.Sizes(*%r))
print("ready", flush=True)
setup.close()
run.stop_children()
"""


def setup_sample(workload_name: str, sizes: Sizes) -> float:
    """Seconds from starting a fresh interpreter to its ``Setup`` being
    ready: one sample of ``setup_s``.

    The child inherits this process's environment (``REPRO_*`` knobs
    already cleared); it is waited for before this returns.
    """
    code = SETUP_CHILD % (HERE, SRC, workload_name, astuple(sizes))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up child failed with code %d" % child.returncode)
    return seconds


def fleet_truth_tables(fusion, alphabet):
    """Per machine, the expected state index for each counter tuple.

    Original ``c<e>`` counts event ``e``.  An instance whose counters
    read ``(k0, k1, k2)`` has code ``k0 * 9 + k1 * 3 + k2`` (originals
    in product order).  An original's state is labelled ``c<k>``; a
    backup's state is the one whose label, a set of top-state tuples,
    contains the instance's tuple.  Built from state labels only, not
    from the engine's arrays.
    """
    import itertools

    import numpy as np

    originals = fusion.originals
    events = [int(machine.name[1:]) for machine in originals]
    tuples = list(itertools.product(range(3), repeat=len(originals)))
    tables = []
    for position, machine in enumerate(originals):
        tables.append(
            np.array([machine.state_index("c%d" % t[position]) for t in tuples])
        )
    for backup in fusion.backups:
        lookup = {}
        for index, label in enumerate(backup.states):
            for member in label:
                lookup[member] = index
        tables.append(
            np.array([lookup[tuple("c%d" % k for k in t)] for t in tuples])
        )
    return {
        "tables": np.stack(tables),
        "event_rows": [alphabet.index(e) for e in events],
    }


# ----------------------------------------------------------------------
# Independent output checks
# ----------------------------------------------------------------------
def _distinct_rows(columns) -> int:
    """Number of distinct rows of the integer matrix ``columns.T``."""
    import numpy as np

    keys = np.zeros(columns.shape[1], dtype=np.int64)
    for column in columns:
        keys = keys * (int(column.max()) + 1) + column
    return int(np.unique(keys).size)


def check_fusion(result, num_originals: int) -> None:
    """Closedness, exhaustive leave-one-out distinctness, minimality."""
    import numpy as np

    top = result.product.machine
    table = np.asarray(top.transition_table, dtype=np.int64)
    size = table.shape[0]
    _require(result.product.num_states == size, "product size mismatch")
    _require(len(result.partitions) == 1, "expected exactly one backup")
    for partition in result.partitions:
        labels = np.asarray(partition.labels, dtype=np.int64)
        blocks = int(labels.max()) + 1
        successors = labels[table]  # (|top|, |E|) successor blocks
        pairs = (
            np.arange(table.shape[1])[None, :] * blocks + labels[:, None]
        ) * blocks + successors
        _require(
            np.unique(pairs).size == table.shape[1] * blocks,
            "backup partition is not closed",
        )
    originals = np.asarray(result.product.projections(), dtype=np.int64)
    backups = np.stack([np.asarray(p.labels, dtype=np.int64) for p in result.partitions])
    system = np.vstack([originals, backups])
    for drop in range(system.shape[0]):
        kept = np.delete(system, drop, axis=0)
        _require(
            _distinct_rows(kept) == size,
            "losing machine %d merges two top states (dmin < 2)" % drop,
        )
    _require(_distinct_rows(originals) == size, "originals do not separate top")
    _require(
        any(
            _distinct_rows(np.delete(originals, drop, axis=0)) < size
            for drop in range(num_originals)
        ),
        "originals alone tolerate a crash, so a backup is not minimal",
    )


def fusion_bytes(result) -> bytes:
    """The result's partitions and backup tables as one byte string."""
    import numpy as np

    parts = [np.asarray(p.labels).tobytes() for p in result.partitions]
    parts += [np.asarray(b.transition_table).tobytes() for b in result.backups]
    return b"|".join(parts)


def check_fleet(setup: Setup) -> None:
    """Every machine of every instance equals the closed-form state."""
    import numpy as np

    expected = setup.expected
    rows = expected["event_rows"]
    code = np.zeros(setup.sizes.instances, dtype=np.int64)
    for row in rows:
        code = code * 3 + setup.counts[row]
    want = expected["tables"][:, code]
    _require(
        np.array_equal(setup.runtime.visible_states, want),
        "fleet visible states differ from the counted ground truth",
    )
    _require(
        np.array_equal(setup.runtime.true_states, want),
        "fleet true states differ from the counted ground truth",
    )


def check_simulation(report, system, machines, workload) -> None:
    _require(report.status == "healthy", "simulation degraded: %s" % (report.culprits,))
    _require(report.consistent, "simulation finished inconsistent")
    states = system.states()
    for machine in machines:
        _require(
            states[machine.name] == machine.run(workload),
            "%s final state differs from machine.run" % machine.name,
        )


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
def ops_per_round(sizes: Sizes) -> int:
    """Cold call, warm calls, one step, two recoveries, simulation runs."""
    return 1 + sizes.warm_calls + 1 + 2 + sizes.sim_runs


class Round:
    """Runs one pipeline round and keeps its samples."""

    def __init__(self, setup: Setup, seed: int, index: int, trace: bool) -> None:
        self.setup = setup
        self.seed = seed
        self.index = index
        self.trace = trace
        self.samples: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.done = 0

    def rng(self, tag: int):
        import numpy as np

        return np.random.default_rng((self.seed, self.index, tag))

    def run(self) -> None:
        cpu = resource.getrusage(resource.RUSAGE_SELF)
        workers_cpu = children_cpu_s()
        self.fusion()
        self.fleet()
        self.simulation()
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.layers["owner.cpu_s"] = (
            after.ru_utime + after.ru_stime - cpu.ru_utime - cpu.ru_stime
        )
        self.layers["pool.worker_cpu_s"] = children_cpu_s() - workers_cpu

    # -- fusion ---------------------------------------------------------
    def fusion(self) -> None:
        from repro import generate_fusion
        from repro.io.store import ArtifactStore
        from repro.utils.timing import Stopwatch

        setup = self.setup
        machines = setup.fuse_machines
        workers = setup.workload.fuse_workers
        os.makedirs(WORK_DIR, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
        try:
            store = ArtifactStore(directory)
            watch = Stopwatch() if self.trace else None
            with Timer() as timer:
                cold = generate_fusion(
                    machines, f=1, workers=workers, store=store, stopwatch=watch
                )
            self.samples["fuse_s"] = timer.seconds
            check_fusion(cold, len(machines))
            reference = fusion_bytes(cold)
            self.done += 1
            if self.trace:
                self._fusion_layers(watch, store, self.samples["fuse_s"])
            load_seconds = []
            hits = store.stats.hits
            for _ in range(setup.sizes.warm_calls):
                watch = Stopwatch() if self.trace else None
                warm = generate_fusion(
                    machines, f=1, workers=workers, store=store, stopwatch=watch
                )
                _require(fusion_bytes(warm) == reference, "warm result differs from cold")
                self.done += 1
                if self.trace:
                    load_seconds.append(watch.as_dict()["store_load"]["seconds"])
            if self.trace:
                self.layers["store.load_s"] = statistics.median(load_seconds)
                self.layers["store.hits"] = (store.stats.hits - hits) / len(load_seconds)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        _require(not os.path.exists(directory), "temporary store not deleted")

    def _fusion_layers(self, watch, store, fuse_s: float) -> None:
        stages = watch.as_dict()

        def exclusive(name: str) -> float:
            return stages.get(name, {}).get("exclusive_seconds", 0.0)

        prune = stages.get("prune", {})
        resources = stages.get("resources", {})
        resilience = stages.get("resilience", {})
        layers = self.layers
        layers["fuse.traced_s"] = fuse_s
        layers["fuse.unexplained_s"] = fuse_s - sum(
            entry["exclusive_seconds"] for entry in stages.values()
        )
        layers["product.build_s"] = exclusive("product_build")
        layers["ledger.build_s"] = exclusive("ledger_build")
        layers["prune.s"] = prune.get("seconds", 0.0)
        layers["prune.rounds"] = prune.get("rounds", 0)
        layers["prune.spent"] = prune.get("spent", 0)
        layers["prune.truncated"] = prune.get("truncated", 0)
        layers["closure.s"] = stages.get("closure", {}).get("seconds", 0.0)
        layers["closure.calls"] = stages.get("closure", {}).get("count", 0)
        layers["descent.self_s"] = exclusive("descent")
        layers["store.commit_s"] = stages.get("store_commit", {}).get("seconds", 0.0)
        layers["store.commits"] = store.stats.commits
        layers["store.checkpoints"] = store.stats.checkpoints
        layers["budget.spills"] = resources.get("spills", 0)
        layers["budget.shm_fallbacks"] = resources.get("shm_fallbacks", 0)
        layers["budget.mem_peak_mb"] = resources.get("mem_peak", 0) / 2**20
        layers["budget.shm_peak_mb"] = resources.get("shm_peak", 0) / 2**20
        for name in ("retries", "crashes", "degraded"):
            self._add("pool." + name, resilience.get(name, 0))

    def _add(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0) + value

    # -- fleet ----------------------------------------------------------
    def fleet(self) -> None:
        setup = self.setup
        sizes = setup.sizes
        runtime = setup.runtime
        machines = runtime.num_machines
        rng = self.rng(1)
        steps = sizes.pooled_steps if setup.pool is not None else sizes.serial_steps
        matrix = rng.integers(
            0, len(runtime.alphabet), size=(steps, sizes.instances), dtype="uint8"
        )
        resilience = setup.pool.resilience.as_counters() if setup.pool else {}
        with Timer() as timer:
            runtime.apply_event_matrix(matrix)
        step_s = timer.seconds
        self.samples["step_events_per_s"] = matrix.size / step_s
        for row in range(len(runtime.alphabet)):
            setup.counts[row] = (
                setup.counts[row] + (matrix == row).sum(axis=0, dtype="int64") % 3
            ) % 3
        del matrix
        self.done += 1
        self.layers["runtime.step_s"] = step_s

        order = rng.permutation(sizes.instances)
        crash_cohort = order[: sizes.instances // 2]
        liar_cohort = order[sizes.instances // 2:]
        for machine in rng.choice(machines, size=2, replace=False):
            runtime.crash_instances(int(machine), crash_cohort)
        crash_s = self._recover(crash_cohort, expected_max_faults=2)
        check_fleet(setup)
        self.done += 1
        runtime.corrupt_instances(int(rng.integers(machines)), liar_cohort, rng=rng)
        liar_s = self._recover(liar_cohort)
        check_fleet(setup)
        self.done += 1
        self.samples["recovered_per_s"] = sizes.instances / (crash_s + liar_s)
        if setup.pool is not None:
            after = setup.pool.resilience.as_counters()
            for name in ("retries", "crashes", "degraded"):
                self._add("pool." + name, after[name] - resilience[name])

    def _recover(self, cohort, **kwargs) -> float:
        from repro import recover_fleet

        recovery = self.setup.recovery
        if self.trace:
            # recover_fleet calls recover_batch on the engine it is given;
            # the instance attribute puts a timer around the vote.
            vote = recovery.recover_batch

            def traced_vote(*args, **kw):
                with Timer() as timer:
                    outcome = vote(*args, **kw)
                self._add("recovery.vote_s", timer.seconds)
                return outcome

            recovery.recover_batch = traced_vote
        try:
            with Timer() as timer:
                recover_fleet(self.setup.runtime, recovery, instances=cohort, **kwargs)
        finally:
            recovery.__dict__.pop("recover_batch", None)
        self._add("recovery.fleet_s", timer.seconds)
        return timer.seconds

    # -- simulation -----------------------------------------------------
    def simulation(self) -> None:
        from repro.simulation import DistributedSystem
        from repro.simulation.fabric import NetworkChaosSpec
        from repro.simulation.faults import FaultInjector

        setup = self.setup
        sizes = setup.sizes
        rng = self.rng(2)
        seconds = 0.0
        events = 0
        for _ in range(sizes.sim_runs):
            workload = [ZOO_EVENTS[i] for i in rng.integers(0, 3, size=sizes.sim_events)]
            system = DistributedSystem.with_fusion_backups(
                setup.zoo,
                f=2,
                fusion=setup.zoo_fusion,
                engine="vectorized",
                network=NetworkChaosSpec.parse(NET_CHAOS % rng.integers(2**31)),
                supervised=True,
                heartbeat_interval=5,
            )
            injector = FaultInjector(system.server_names(), seed=int(rng.integers(2**31)))
            plan = injector.random_plan(
                num_crash=2, num_byzantine=0, workload_length=sizes.sim_events
            )
            with Timer() as timer:
                report = system.run(workload, fault_plan=plan)
            seconds += timer.seconds
            events += report.events_applied
            check_simulation(report, system, setup.zoo_fusion.originals, workload)
            self.done += 1
            stats = system.fabric.stats
            self._add("sim.attempts", stats.attempts)
            self._add("sim.dropped", stats.dropped)
            self._add("sim.retries", stats.retries)
            self._add("sim.recoveries", report.recoveries)
        self.layers["sim.events_per_s"] = events / seconds
        self.layers["sim.run_s"] = seconds


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
END_TO_END = {
    "setup_s": "s",
    "fuse_s": "s",
    "step_events_per_s": "1/s",
    "recovered_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
#: End-to-end metrics that are medians over the timed rounds.
ROUND_METRICS = ("fuse_s", "step_events_per_s", "recovered_per_s")

PER_LAYER_UNITS = {
    "product.build_s": "s",
    "ledger.build_s": "s",
    "prune.s": "s",
    "prune.rounds": "count",
    "prune.spent": "count",
    "prune.truncated": "count",
    "closure.s": "s",
    "closure.calls": "count",
    "descent.self_s": "s",
    "fuse.traced_s": "s",
    "fuse.unexplained_s": "s",
    "pool.worker_cpu_s": "s",
    "owner.cpu_s": "s",
    "pool.worker_peak_rss_mb": "MiB",
    "pool.retries": "count",
    "pool.crashes": "count",
    "pool.degraded": "count",
    "budget.spills": "count",
    "budget.shm_fallbacks": "count",
    "budget.mem_peak_mb": "MiB",
    "budget.shm_peak_mb": "MiB",
    "store.commit_s": "s",
    "store.load_s": "s",
    "store.commits": "count",
    "store.checkpoints": "count",
    "store.hits": "count",
    "runtime.step_s": "s",
    "recovery.vote_s": "s",
    "recovery.fleet_s": "s",
    "sim.run_s": "s",
    "sim.events_per_s": "1/s",
    "sim.attempts": "count",
    "sim.dropped": "count",
    "sim.retries": "count",
    "sim.recoveries": "count",
}


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def clear_knobs() -> None:
    """Drop every ``REPRO_*`` knob so only explicit arguments configure runs."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A child's own helper process (a resource tracker, say) that outlives
    the child is then re-parented here, so ``stop_children`` waits for it
    instead of leaving it to the system.  Best effort elsewhere.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            continue
    return pids


def stop_children(grace_seconds: float = 10.0) -> None:
    """Stop every process this one started and wait for each to end.

    ``SharedMemory`` starts the multiprocessing resource tracker, which
    otherwise runs on after this process exits; closing its pipe tells it
    to end.  The worker pools are joined when they close, so every child
    left (the tracker too) is given ``grace_seconds`` to end, then killed.
    """
    import signal
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace_seconds
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = FULL,
            log: Callable[[str], None] = print) -> Dict[str, object]:
    """Set up, warm up, run timed rounds; return the result object.

    Untraced, every round (the warm-up too) first times one set-up in a
    fresh interpreter (``setup_sample``), so ``setup_s`` is a median of
    samples spread over the run like the round metrics.
    """
    import numpy as np

    workload = WORKLOADS[workload_name]
    shm_before = shm_segments()
    setup = Setup(workload, sizes)
    setup_seconds: List[float] = []

    per_round = ops_per_round(sizes)
    attempted = failed = 0
    correct = True
    rounds: List[Round] = []  # timed rounds that passed every check
    round_seconds: List[float] = []  # every timed round
    index = 0  # round 0 is the untimed warm-up
    measure_start = 0.0
    try:
        while index <= MIN_ROUNDS or (
            time.perf_counter() - measure_start + statistics.median(round_seconds)
            <= seconds
        ):
            this = Round(setup, seed, index, trace)
            start = time.perf_counter()
            if not trace:
                setup_seconds.append(setup_sample(workload_name, sizes))
            attempted += per_round
            try:
                this.run()
            except CheckFailed as exc:
                correct = False
                failed += per_round - this.done
                log("round %d: check failed: %s" % (index, exc))
            except Exception as exc:  # one failed round must not end the run
                failed += per_round - this.done
                log("round %d: %s: %s" % (index, type(exc).__name__, exc))
            else:
                if index:
                    rounds.append(this)
            if index:
                round_seconds.append(time.perf_counter() - start)
            else:
                measure_start = time.perf_counter()
            index += 1
    finally:
        setup.close()
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    attempted += 1
    stray = sorted(shm_segments() - shm_before)
    if stray:
        failed += 1
        log("stray /dev/shm segments: %s" % ", ".join(stray))

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    config = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fuse_workers": workload.fuse_workers,
        "step_workers": workload.step_workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": sizes.__dict__,
        "setup_samples": len(setup_seconds),
        "warmup_rounds": 1,
        "timed_rounds": index - 1,
        "timed_seconds": round(sum(round_seconds), 3),
    }
    log("config " + json.dumps(config, sort_keys=True))
    if setup_seconds:
        log("setup samples %s" % json.dumps(setup_seconds))
    for this in rounds:
        log("round %d %s" % (this.index, json.dumps(this.layers if trace else this.samples)))

    def median(name: str, source: str) -> float:
        values = [getattr(r, source)[name] for r in rounds if name in getattr(r, source)]
        return float(statistics.median(values)) if values else 0.0

    if trace:
        metrics = {name: median(name, "layers") for name in PER_LAYER_UNITS}
        # A peak, not a per-round figure: the largest pool worker of the run.
        metrics["pool.worker_peak_rss_mb"] = children.ru_maxrss / 1024.0
        units = PER_LAYER_UNITS
    else:
        metrics = {name: median(name, "samples") for name in ROUND_METRICS}
        metrics["setup_s"] = statistics.median(setup_seconds)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            args.seconds = json.load(handle)["run_seconds"]
    clear_knobs()
    sys.path.insert(0, SRC)
    adopt_orphans()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    for name, entry in result["metrics"].items():
        print("%-26s %16.6f %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
