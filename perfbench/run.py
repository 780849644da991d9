"""Benchmark runner: time to verdict of the hocohom CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
child process (worker.py) with one thread, one verb call at a time (a
closed loop, concurrency 1):

--trace 0  `setup_s` is the median of SETUP_RUNS fresh processes that
           import the package, parse the spec and build the group algebra.
           One more process calls the verb in a closed loop for S seconds,
           a fresh ProblemSpec per call; `wall_s` and `cpu_s` are medians
           over its calls and `peak_rss_mb` is its peak resident memory
           after the first call.
--trace 1  One process makes one untraced request (parse, algebra, verb)
           and then two traced ones, with the layer functions wrapped by
           tracer.py; it reports per-layer self times and exact counters.

Every call is checked against reference.json; a call that raises, returns a
failing verdict, differs from the reference or is still running at the
run's time limit counts as failed.  Human-readable lines come first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import wrapped_labels
from workloads import WORKLOADS, seeded_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
RUN_LIMIT_S = 150          # a run, hung calls included, ends within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker(args: list[str], doc: dict, timeout: float) -> tuple[list[dict], bool]:
    """Run worker.py; returns its JSON records and whether it finished in time."""
    env = {**os.environ, **SINGLE_THREAD}
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, input=json.dumps(doc), capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the child
        out = err.stdout.decode() if isinstance(err.stdout, bytes) else (err.stdout or "")
        # the text after the last newline is a record cut off by the kill
        return [json.loads(line) for line in out.split("\n")[:-1] if line], False
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line], True


def problems(record: dict, name: str, reference: dict) -> list[str]:
    """Why one call's result is wrong; empty when it matches the reference."""
    if record["error"]:
        return [f"raised {record['error']}"]
    result, expected = record["result"], reference["recorded"][name]
    found = []
    if not result["ok"]:
        found.append("ok is false")
    failing = sorted(k for k, passed in result["verdicts"].items() if not passed)
    if failing:
        found.append(f"failing verdicts {failing}")
    if sorted(result["verdicts"]) != expected["verdicts"]:
        found.append(f"verdict names {sorted(result['verdicts'])}")
    if result["grids"] != expected["grids"]:
        found.append(f"grids {result['grids']}")
    for module, row in reference["textbook_q1"][name].items():
        if result["grids"].get(module, [None])[0] != row:
            found.append(f"q = 1 row of {module} differs from the textbook {row}")
    if record.get("report_equal") is False:
        found.append("traced report differs from the untraced report")
    return found


def measure(name: str, doc: dict, seconds: int, deadline: float) -> tuple[dict, list[dict], bool]:
    verb = WORKLOADS[name]["verb"]
    setups = []
    for _ in range(SETUP_RUNS):
        records, finished = worker(["setup"], doc, deadline - time.monotonic())
        if not finished:
            raise RuntimeError("set-up did not finish within the run's time limit")
        setups.append(records[0]["setup_s"])
    calls, finished = worker(["timed", verb, str(seconds)], doc, deadline - time.monotonic())
    if not calls:
        raise RuntimeError("no verb call finished within the run's time limit")
    walls = [c["wall_s"] for c in calls]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "peak_rss_mb": calls[0]["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    # with fewer than 20 samples the median is the highest percentile that has
    # at least ten samples beyond it once runs are pooled
    print(f"  wall_s over {len(calls)} calls: min {min(walls):.4f} "
          f"median {metrics['wall_s']:.4f} max {max(walls):.4f} s")
    print(f"  setup_s over {SETUP_RUNS} fresh processes: "
          + " ".join(f"{s:.4f}" for s in setups))
    return metrics, calls, finished


def trace(name: str, seed: int, doc: dict, deadline: float,
          reference: dict) -> tuple[dict, list[dict], bool]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    records, finished = worker(["trace", WORKLOADS[name]["verb"], str(spans_path)], doc,
                               deadline - time.monotonic())
    if not finished or "layers" not in records[-1]:
        raise RuntimeError("the traced run did not finish within the run's time limit")
    summary = records.pop()
    layers = summary["layers"]
    checks = {
        "layer self times + unattributed_s = trace.wall_s": abs(
            sum(v for k, v in layers.items() if k.endswith("_s")
                and k not in ("trace.wall_s", "trace.overhead_s")) - layers["trace.wall_s"]) < 1e-6,
        "exact counters repeat across the two traced requests": summary["counters_repeat"],
        "wrapped functions reached as recorded": summary["reached"] == reference["reached"][name],
        "the workloads together reach every wrapped function":
            set().union(*reference["reached"].values()) == wrapped_labels(),
        "every wrapped function exists": not summary["missing"],
    }
    for check, passed in checks.items():
        print(f"  tracer self-check [{'PASS' if passed else 'FAIL'}] {check}")
        if not passed:
            sys.stderr.write(f"tracer self-check failed: {check}\n")
    unreached = sorted(set(reference["reached"][name]) - set(summary["reached"]))
    if unreached or summary["missing"]:
        print(f"  unreached {unreached}, missing {summary['missing']}")
    print(f"  {summary['spans']} spans written to {spans_path.relative_to(ROOT)}")
    return layers, records, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hocohom" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {ROOT / 'src' / 'hocohom'}\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    doc = seeded_spec(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload]['verb']} "
          f"with generators {doc['group']['generators']}")
    try:
        if args.trace:
            values, records, finished = trace(args.workload, args.seed, doc, deadline, reference)
        else:
            values, records, finished = measure(args.workload, doc, args.seconds, deadline)
    except RuntimeError as err:  # no complete measurement: print no result
        sys.stderr.write(f"benchmark run failed: {err}\n")
        return 1

    attempted = len(records) + (0 if finished else 1)
    failed = 0 if finished else 1
    for i, record in enumerate(records):
        found = problems(record, args.workload, reference)
        if found:
            failed += 1
            print(f"  call {i} FAILED: {'; '.join(found)}")
    if not finished:
        print("  the last call was still running at the run's time limit: FAILED")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for m in declared:
        print(f"  {m['name']:<34} {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
