"""privustat benchmark: one command, four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload complete-family --seed 1 --seconds 15 --trace 0

Each workload runs as a closed loop with one caller, in worker processes
started one at a time with the checkout's ``src`` on PYTHONPATH and BLAS
pinned to ``BLAS_THREADS`` threads.  The first worker checks every input
against its NumPy oracle after set-up; the last one measures, so the oracles
never count in a measured figure.  With ``--trace 0`` the run starts
``SETUP_SAMPLES`` workers, times each from process start to the end of its
warm-up round (``setup_s`` is their median), and lets the last one measure
rounds for ``--seconds``.  With ``--trace 1`` the measuring worker runs a
fixed cycle of rounds untraced and then traced, and reports the per-layer
metrics.

Times are calibrated against a fixed reference kernel timed between ops
(see ``Clock`` in worker.py), because the host's speed drifts; raw wall
times are kept in the record.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json lists for the mode.  Every end-to-end metric
that applies to the workload is printed above it, and the full record
(provenance, per-op input sizes and working sets, failures, trace) is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("complete-family", "count-summary", "simulate-grid", "audit")
SETUP_SAMPLES = 3
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "round_s_p50": "s", "round_s_tail": "s", "fail_ratio": "1",
    "all_tuples_s": "s", "hajek_s": "s", "collision_density_s": "s", "triangle_density_s": "s",
    "cli_s": "s", "trials_per_s": "1/s", "smoothness_audit_s": "s", "noise_audit_s": "s",
}


class BenchError(Exception):
    pass


def git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, mode: str, scratch: Path, deadline: float) -> tuple[tuple, dict | None]:
    """Start one worker, wait for it, and return ((calibrated, wall) set-up seconds, result).

    The set-up wall time leaves out the time the worker's reference clock took.
    """
    scratch.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--scratch", str(scratch)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                wall = time.perf_counter() - started
                reference, nominal, clock = (float(tok) for tok in line.split()[1:4])
                ready = ((wall - clock) * nominal / reference, wall)
            elif line.startswith("{"):
                result = json.loads(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise BenchError(f"worker ({mode}) exited with code {code} before finishing")
    return ready, result


def print_table(title: str, rows: list[tuple[str, object, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:42s} {shown:>14s}  {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "privustat" / "__init__.py").is_file():
        print(f"no privustat sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = HERE / "out"
    scratch = out_dir / f"inputs-{os.getpid()}"
    try:
        ready, checked = run_worker(args, "oracle", scratch / "oracle", deadline)
        setups = [ready]
        if not args.trace:
            setups += [run_worker(args, "setup", scratch / str(i), deadline)[0]
                       for i in range(SETUP_SAMPLES - 2)]
        ready, result = run_worker(args, "run", scratch / "main", deadline)
        setups.append(ready)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    oracle = checked["oracle"]
    correct = not result["wrong_outputs"] and all(c["ok"] for c in oracle)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": {"git_commit": git_commit(), "seed": args.seed, **result["provenance"]},
        "setup_s_samples": [cal for cal, _ in setups],
        "setup_wall_s_samples": [wall for _, wall in setups],
        **{k: v for k, v in result.items() if k != "provenance"},
        "oracle": oracle, "correct": correct,
    }
    provenance = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}  commit {provenance['git_commit']}")
    print("provenance " + json.dumps(provenance))
    if args.trace:
        trace = result["trace"]
        metrics = {m["name"]: trace["metrics"][m["name"]] for m in listed["per_layer"]}
        print_table("per-layer metrics (one traced cycle):",
                    [(k, v["value"], v["unit"]) for k, v in trace["metrics"].items()])
        base = trace["overhead_base"]
        print(f"trace.overhead_ratio = {base['traced_s']:.4g} s traced / {base['untraced_s']:.4g} s "
              f"untraced; absent entry points: {trace['absent'] or 'none'}")
        for key in ("hajek.reweight.calls", "hajek.n_bad"):
            per_op = {op: c["counts"][key] for op, c in trace["by_op"].items() if c["counts"].get(key)}
            print(f"{key} by op: {per_op or 'none'}")
    else:
        e2e = dict(result["metrics"])
        tail_info = e2e.pop("round_s_tail")
        e2e.update({
            "setup_s": statistics.median(cal for cal, _ in setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "fail_ratio": failed / attempted,
        })
        if tail_info["value"] is not None:
            e2e["round_s_tail"] = tail_info["value"]
        record["end_to_end"] = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
        record["round_s_tail"] = tail_info
        print_table("end-to-end metrics:", [(k, v, UNITS[k]) for k, v in e2e.items()])
        print(f"round_s_tail: p{tail_info['percentile']} of {tail_info['rounds']} rounds"
              if tail_info["value"] is not None else
              f"round_s_tail: not defined, {tail_info['rounds']} rounds (< 20) leave no percentile "
              "at or above the median with ten rounds beyond it")
        print(f"peak_rss_mb before the first library call (interpreter, imports, inputs, clock): "
              f"{result['inputs_peak_rss_mb']:.6g} MB")
        metrics = {m["name"]: record["end_to_end"][m["name"]] for m in listed["end_to_end"]}
    print(f"ops attempted {attempted}, failed {failed}, bottoms {result['bottoms']}, "
          f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    for name, op in result["ops"].items():
        for message, count in op["failures"].items():
            print(f"  failed {name} x{count}: {message}")
    bad_oracles = [c for c in oracle if not c["ok"]]
    print(f"oracle checks {len(oracle) - len(bad_oracles)}/{len(oracle)} ok; "
          f"wrong outputs {len(result['wrong_outputs'])}")
    for item in bad_oracles + result["wrong_outputs"][:10]:
        print(f"  {item}")

    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
