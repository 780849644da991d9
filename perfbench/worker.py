"""One fresh benchmark process; run.py starts it and reads its stdout.

    worker.py setup                       time import + parse + algebra once
    worker.py timed VERB SECONDS          closed loop of verb calls
    worker.py trace VERB SPANS_PATH       one untraced and two traced requests

The problem document arrives as JSON on stdin.  Each mode prints JSON
lines; the package is imported only after the document has been read, so
`setup` times the import too.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def emit(record: dict):
    print(json.dumps(record, sort_keys=True), flush=True)


def summarize(verb: str, fragment: dict, ok: bool) -> dict:
    """Grids and named verdicts of one verb report, for the correctness gate."""
    if verb == "verify":
        grids = fragment["grids"]
        verdicts = {v["check"]: v["pass"] for v in fragment["verdicts"]}
    else:
        grids = {name: entry["grid"] for name, entry in fragment["modules"].items()}
        verdicts = {f"cohom.{name}.{check}": passed
                    for name, entry in fragment["modules"].items()
                    for check, passed in entry["checks"].items()}
    return {"ok": bool(ok), "grids": grids, "verdicts": verdicts}


def verb_function(verb: str):
    from hocohom import cli
    return {"verify": cli.cmd_verify, "cohom": cli.cmd_cohom}[verb]


def call(verb: str, doc: dict):
    """One request as the CLI makes it: a fresh spec, its algebra, the verb."""
    from hocohom.problem import parse_problem
    spec = parse_problem(doc)
    spec.algebra()
    return verb_function(verb)(spec)


def run_setup(doc: dict):
    started = time.perf_counter()
    from hocohom.problem import parse_problem
    parse_problem(doc).algebra()
    emit({"setup_s": time.perf_counter() - started})


def run_timed(doc: dict, verb: str, seconds: float):
    """Closed loop, one call at a time; a fresh ProblemSpec per call keeps
    the per-algebra resolution cache cold, as for a real CLI call."""
    from hocohom.problem import parse_problem
    fn = verb_function(verb)
    started = time.perf_counter()
    first = True
    while True:
        spec = parse_problem(doc)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        record = {"error": None, "result": None}
        try:
            record["result"] = summarize(verb, *fn(spec))
        except Exception as err:  # a failed call is counted, not fatal
            record["error"] = repr(err)
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = time.process_time() - cpu0
        if first:
            # ru_maxrss is in KiB on Linux; this process has run the workload once
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            first = False
        emit(record)
        if time.perf_counter() - started + record["wall_s"] > seconds:
            break


def run_trace(doc: dict, verb: str, spans_path: str):
    from tracer import COUNT_METRICS, Tracer, combine
    verb_function(verb)  # import every package module before patching

    def request():
        record = {"error": None, "result": None, "report": None}
        try:
            fragment, ok = call(verb, doc)
            record["result"] = summarize(verb, fragment, ok)
            record["report"] = json.dumps([fragment, ok], sort_keys=True, default=str)
        except Exception as err:
            record["error"] = repr(err)
        return record

    started = time.perf_counter()
    untraced = request()
    untraced["wall_s"] = time.perf_counter() - started
    emit({k: v for k, v in untraced.items() if k != "report"})

    tracer = Tracer()
    missing = tracer.install()
    per_request = []
    try:
        for request_id in (1, 2):
            with tracer.request(request_id):
                record = request()
            metrics = tracer.request_metrics(request_id)
            per_request.append(metrics)
            record["wall_s"] = metrics["trace.wall_s"]
            record["report_equal"] = record.pop("report") == untraced["report"]
            emit(record)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    metrics = combine(per_request)
    metrics.update({k: per_request[0][k] for k in COUNT_METRICS + ["resolution.reuse_ratio"]})
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["wall_s"]
    emit({"layers": metrics,
          "counters_repeat": tracer.counters[1] == tracer.counters[2],
          "reached": sorted(tracer.reached),
          "missing": missing,
          "spans": len(tracer.spans)})


def main(argv: list[str]):
    doc = json.load(sys.stdin)
    mode = argv[0]
    if mode == "setup":
        run_setup(doc)
    elif mode == "timed":
        run_timed(doc, argv[1], float(argv[2]))
    elif mode == "trace":
        run_trace(doc, argv[1], argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
