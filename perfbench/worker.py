"""One workload process: set-up, warm-up round, then oracle checks or measured rounds.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Prints READY
once set-up (import, input generation, one warm-up round) is done.  With
``--mode setup`` it stops there.  With ``--mode oracle`` it then checks every
input's U-statistic against its NumPy oracle and prints the findings as one
JSON line; the oracles run only in this mode, so that they never raise the
peak resident set of a measuring worker.  With ``--mode run`` it prints one
JSON line with the measured rounds, op accounting, wrong outputs and, with
``--trace 1``, the per-layer trace.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import privustat  # noqa: E402
from privustat.errors import PreconditionWarning  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LEDGER_TOLERANCE = 1e-9
ORACLE_TOLERANCE = 1e-12
REFERENCE_S = 0.014  # reference-kernel time on an idle 2-core x86-64 VM (Python 3.11, NumPy 2.4)


class Clock:
    """Machine-speed calibration for a shared, noisy host.

    A fixed reference kernel is timed between ops.  It mixes the kinds of
    work the workloads do: a sort, a random gather from 32 MB, an interpreter
    loop, and many small NumPy calls with generator construction.  An op's
    calibrated time is its wall time scaled by REFERENCE_S over the mean of
    the warm reference times taken just before and just after it (see
    ``Runner.round``), i.e. seconds at the reference machine speed.  The
    kernel's inputs are fixed.

    A workload whose ops slow down less (or more) than the kernel when the
    host is busy sets ``speed_exponent``: the scale factor is raised to it.

    ``spent`` is the wall time the clock itself has taken (construction and
    samples), which run.py takes out of the set-up time.
    """

    def __init__(self):
        import numpy as np

        start = time.perf_counter()
        rng = np.random.default_rng(12345)
        self._sortable = rng.random(100_000)
        self._table = rng.random(4_000_000)
        self._index = rng.integers(0, self._table.size, 400_000)
        self._small = rng.random(64)
        self._np = np
        self.spent = time.perf_counter() - start

    def sample(self) -> float:
        np = self._np
        start = time.perf_counter()
        np.sort(self._sortable)
        float(self._table[self._index].sum())
        acc = 0
        for i in range(30_000):
            acc += i & 7
        for i in range(400):
            acc += float(np.mean(self._small * np.random.default_rng(i).random()))
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        return elapsed

    def settle(self, samples: int = 3) -> float:
        return statistics.median(self.sample() for _ in range(samples))


class OpStats:
    def __init__(self, sizes):
        self.attempted = self.failed = self.bottoms = 0
        self.times: list[float] = []
        self.calibrated: list[float] = []
        self.reference: list[float] = []  # reference time the op was scaled by
        self.first_after: list[float] = []  # the discarded sample right after the op
        self.messages: dict[str, int] = {}
        self.sizes: list[dict] = [sizes]

    def summary(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed, "bottoms": self.bottoms,
            "median_s": statistics.median(self.calibrated) if self.calibrated else None,
            "median_wall_s": statistics.median(self.times) if self.times else None,
            "median_reference_s": statistics.median(self.reference) if self.reference else None,
            "median_first_after_s": statistics.median(self.first_after) if self.first_after else None,
            "failures": self.messages, "inputs": self.sizes,
        }


class Runner:
    """Runs ops, times them, and applies the correctness gates."""

    def __init__(self, clock: Clock, speed_exponent: float):
        self.clock = clock
        self.speed_exponent = speed_exponent
        self.seen: dict[tuple, str] = {}
        self.stats: dict[str, OpStats] = {}
        self.wrong: list[str] = []  # wrong outputs, as opposed to raised errors
        self.tracer = None
        self.op_walls: list[tuple[str, int, float]] = []  # (op, slot, seconds) while traced

    def gates(self, op, outcome) -> list[str]:
        problems = []
        if outcome.exit_code is not None and outcome.exit_code not in (0, 3):
            problems.append(f"exit code {outcome.exit_code}")
        if outcome.values is not None and not all(math.isfinite(v) for v in outcome.values):
            problems.append(f"non-finite release {outcome.values}")
        if op.contract is not None:
            spent = outcome.spent
            if spent is None:
                problems.append("no ledger total reported")
            elif outcome.values is None and spent > op.contract + LEDGER_TOLERANCE:
                problems.append(f"bottom spent {spent} above contract {op.contract}")
            elif outcome.values is not None and abs(spent - op.contract) > LEDGER_TOLERANCE:
                problems.append(f"ledger total {spent} differs from contract {op.contract}")
        key = (op.name, op.seed)
        if self.seen.setdefault(key, outcome.signature) != outcome.signature:
            problems.append(f"output differs from an earlier run with seed {op.seed}")
        return problems

    def run(self, op, slot, record=True) -> tuple[float, int]:
        stats = self.stats.setdefault(op.name, OpStats(op.sizes))
        if op.sizes not in stats.sizes:
            stats.sizes.append(op.sizes)
        if self.tracer is not None:
            self.tracer.op = len(self.op_walls)
        start = time.perf_counter()
        try:
            outcome, error = op.call(), None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.op_walls.append((op.name, slot, elapsed))
        problems = [] if outcome is None else self.gates(op, outcome)
        self.wrong += [f"{op.name} (seed {op.seed}): {p}" for p in problems]
        if record:
            stats.attempted += 1
            stats.times.append(elapsed)
            if outcome is not None and outcome.values is None:
                stats.bottoms += 1
            messages = [error] if error else problems
            stats.failed += bool(messages)
            for message in messages:
                stats.messages[message] = stats.messages.get(message, 0) + 1
        return elapsed, outcome.trials if outcome is not None else 0

    def round(self, ops, slot, record=True) -> dict:
        """Run one slot's ops; times are calibrated seconds, raw wall times kept aside.

        The first reference sample after an op runs on caches the op has just
        filled or emptied, so it is taken and discarded; the op is scaled by
        the warm samples before and after it.
        """
        times, raw, trials = {}, {}, 0
        before = self.clock.sample()
        for op in ops:
            raw[op.name], done = self.run(op, slot, record)
            first = self.clock.sample()
            after = self.clock.sample()
            reference = 0.5 * (before + after)
            times[op.name] = raw[op.name] * (REFERENCE_S / reference) ** self.speed_exponent
            if record:
                stats = self.stats[op.name]
                stats.calibrated.append(times[op.name])
                stats.reference.append(reference)
                stats.first_after.append(first)
            before = after
            trials += done
        return {"slot": slot, "ops": times, "raw": raw, "trials": trials}


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten rounds beyond it."""
    ordered = sorted(values)
    if len(ordered) < 20:  # no percentile at or above the median has ten rounds beyond it
        return {"value": None, "percentile": None, "rounds": len(ordered)}
    i = len(ordered) - 11
    return {"value": ordered[i], "percentile": round(100.0 * (i + 1) / len(ordered), 1),
            "rounds": len(ordered)}


def round_metrics(workload, ops_by_slot, rounds) -> dict:
    metric_of = {op.name: op.metric for ops in ops_by_slot for op in ops}
    round_s = [sum(r["ops"].values()) for r in rounds]
    out = {"round_s_p50": statistics.median(round_s), "round_s_tail": tail(round_s)}
    for metric in workload.metrics:
        if metric == "trials_per_s":
            out[metric] = statistics.median(r["trials"] / s for r, s in zip(rounds, round_s))
        else:
            out[metric] = statistics.median(
                sum(t for name, t in r["ops"].items() if metric_of[name] == metric) for r in rounds)
    return out


def trace_metrics(tr, runner, base_rounds, traced_rounds) -> dict:
    self_s = tr.self_times()
    counts = tr.counts
    covered = tr.covered_by_op()
    unattributed = defaultdict(float)
    by_op = defaultdict(lambda: {"self_s": defaultdict(float), "counts": defaultdict(int)})
    for i, (name, slot, wall) in enumerate(runner.op_walls):
        unattributed[name] += wall - covered.get(i, 0.0)
        for key, value in tr.op_counts.get(i, {}).items():
            by_op[name]["counts"][key] += value
    for (i, layer), seconds in tr.self_times(by_op=True).items():
        by_op[runner.op_walls[i][0]]["self_s"][layer] += seconds
    base = sum(sum(r["ops"].values()) for r in base_rounds)
    traced = sum(sum(r["ops"].values()) for r in traced_rounds)
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0)
        elif name == "boosting.useful_ratio":
            value = counts["boosting.useful_chunks"] / counts["boosting.chunks"] if counts["boosting.chunks"] else 0.0
        elif name == "trace.unattributed_s":
            value = sum(unattributed.values())
        elif name == "trace.overhead_ratio":
            value = traced / base
        else:
            value = counts[name]
        metrics[name] = {"value": value, "unit": unit}
    return {
        "metrics": metrics,
        "absent": tr.absent,
        "by_op": by_op,
        "unattributed_s_by_op": dict(unattributed),
        "spans": tr.span_table(),
        "span_ops": [{"op": name, "slot": slot} for name, slot, _ in runner.op_walls],
        "overhead_base": {"untraced_s": base, "traced_s": traced,
                          "untraced_rounds": [r["slot"] for r in base_rounds],
                          "traced_rounds": [r["slot"] for r in traced_rounds]},
        "useful_ratio_base": {"useful_chunks": counts["boosting.useful_chunks"],
                              "chunks": counts["boosting.chunks"]},
    }


def cache_sizes() -> dict:
    """L2/L3 sizes from sysconf (glibc names 191 and 194)."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes, libc.sysconf.restype = [ctypes.c_int], ctypes.c_long
        return {"l2_bytes": libc.sysconf(191), "l3_bytes": libc.sysconf(194)}
    except (OSError, AttributeError):
        return {"l2_bytes": None, "l3_bytes": None}


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), **cache_sizes(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "oracle", "run"), default="run")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    library = Path(privustat.__file__).resolve()
    if ROOT / "src" not in library.parents:
        print(f"privustat imported from {library}, not from this checkout", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", PreconditionWarning)

    clock = Clock()
    speed = [clock.settle()]
    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    ops_by_slot = [workload.ops(s) for s in range(workload.slots)]
    inputs_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner = Runner(clock, workload.speed_exponent)
    runner.round(ops_by_slot[0], 0, record=False)  # warm-up
    speed.append(clock.settle())
    # run.py takes the clock's own time out of the set-up wall time and
    # scales the rest by REFERENCE_S / the mean reference time
    print(f"READY {statistics.mean(speed)!r} {REFERENCE_S!r} {clock.spent!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "oracle":
        oracle = []
        for label, library_value, oracle_value in workload.oracle_checks():
            got = library_value()
            ok = abs(got - oracle_value) <= ORACLE_TOLERANCE * max(abs(oracle_value), 1e-300)
            oracle.append({"input": label, "library": got, "oracle": oracle_value, "ok": ok})
        print(json.dumps({"oracle": oracle}), flush=True)
        return 0

    result = {"provenance": provenance(), "speed_exponent": workload.speed_exponent}
    if args.trace:
        untraced_slots, traced_slots = workload.trace_slots()
        base = [runner.round(ops_by_slot[s], s) for s in untraced_slots]
        tr = tracing.Tracer()
        tr.install(tracing.ENTRY_POINTS)
        runner.tracer = tr
        try:
            traced = [runner.round(ops_by_slot[s], s) for s in traced_slots]
        finally:
            tr.uninstall()
            runner.tracer = None
        rounds = base + traced
        result["trace"] = trace_metrics(tr, runner, base, traced)
    else:
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            slot = workload.loop_slot(len(rounds))
            rounds.append(runner.round(ops_by_slot[slot], slot))
        result["metrics"] = round_metrics(workload, ops_by_slot, rounds)

    stats = runner.stats.values()
    result.update({
        "rounds": len(rounds),
        "round_slots": [r["slot"] for r in rounds],
        "round_s": [sum(r["ops"].values()) for r in rounds],
        "round_wall_s": [sum(r["raw"].values()) for r in rounds],
        "attempted": sum(s.attempted for s in stats),
        "failed": sum(s.failed for s in stats),
        "bottoms": sum(s.bottoms for s in stats),
        "ops": {name: s.summary() for name, s in runner.stats.items()},
        "wrong_outputs": runner.wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs_peak_rss_mb": inputs_rss_mb,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
