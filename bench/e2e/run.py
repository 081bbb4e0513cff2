#!/usr/bin/env python3
"""End-to-end benchmark for DSLog: ingest, reuse, in-situ query and serving.

Builds its own Release tree (build-bench/ at the repository root) from
source, runs bench_e2e once per workload, each in a process of
its own, and prints every metric as `workload metric value unit`.

One workload (the form BENCHMARK.json names):

    python3 bench/e2e/run.py --workload query --seed 1 --seconds 15 --trace 0

The last line of stdout is then one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, measured with tracing off. With
--trace 1 they are the per_layer metrics: the workload runs once untraced
and once traced (trace spans and QueryOptions::profile on), the Chrome
trace lands in build-bench/traces/<workload>.trace.json, and
trace.overhead_frac_* compare the two runs' latencies.

All workloads (prints every workload's lines, then one JSON document):

    python3 bench/e2e/run.py --seed 1 [--trace 1] [--record runs.jsonl]

--record appends each run's full bench_e2e output (stamps included) as one
JSON line, the input bench/e2e/compare.py reads.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
WORKLOADS = ["ingest", "reuse", "query", "serve"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds bench_e2e; build output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return BUILD / "bench_e2e"


def drive(binary, workload, seed, seconds, trace_file=None):
    """Runs bench_e2e once; returns its parsed result line."""
    workdir = BUILD / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(workdir)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: bench_e2e exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    # Exit 3 still prints a result: its answers were wrong.
    if proc.returncode not in (0, 3) or not lines:
        fail(f"{workload}: bench_e2e exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["notes"] = [l[2:] for l in lines[:-1] if l.startswith("# ")]
    return result


def check_trace(path, workload):
    """A trace must parse as Chrome trace_event JSON with tagged spans."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail(f"{workload}: trace {path} holds no spans")
    for e in spans:
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"{workload}: trace span without {key}: {e}")
    if not any("rid" in e.get("args", {}) for e in spans):
        fail(f"{workload}: no span carries a request id")
    return len(spans)


def overhead(traced, untraced, name):
    base = untraced["metrics"][name]["value"]
    return traced["metrics"][name]["value"] / base - 1.0 if base else 0.0


def run_workload(binary, workload, seed, seconds, traced):
    """One benchmark run of one workload, as BENCHMARK.json defines it."""
    untraced = drive(binary, workload, seed, seconds)
    if not traced:
        return untraced
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{workload}.trace.json"
    result = drive(binary, workload, seed, seconds, trace_file)
    result["wrong"] += untraced["wrong"]
    result["notes"].append(f"trace_spans {check_trace(trace_file, workload)}")
    result["notes"].append(f"trace_file {trace_file.relative_to(ROOT)}")
    for name in ("latency_ms_p50", "latency_ms_p95"):
        result["metrics"][f"trace.overhead_frac_{name[-3:]}"] = {
            "value": overhead(result, untraced, name), "unit": "fraction"}
    return result


def selected_metrics(result, spec, traced):
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"{result['workload']}: bench_e2e did not report {missing}")
    return {n: result["metrics"][n] for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append full results (JSON lines)")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    workloads = [args.workload] if args.workload else WORKLOADS

    results = []
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, seconds,
                              bool(args.trace))
        result["selected"] = selected_metrics(result, spec, bool(args.trace))
        results.append(result)
        print(f"# {workload}: seed={result['seed']} nproc={result['nproc']} "
              f"isa={result['isa']} trace_compiled={result['trace_compiled']} "
              f"traced={result['traced']} setup_s_runs={result['setup_s_runs']}")
        for note in result["notes"]:
            print(f"# {workload}: {note}")
        for name, m in result["selected"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps({k: v for k, v in result.items()
                                    if k != "selected"}) + "\n")

    correct = all(r["wrong"] == 0 for r in results)
    if args.workload:
        r = results[0]
        print(json.dumps({"correct": correct, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": r["selected"]}))
    else:
        print(json.dumps({"seed": args.seed, "seconds": seconds,
                          "traced": bool(args.trace), "correct": correct,
                          "workloads": {r["workload"]: {
                              "attempted": r["attempted"],
                              "failed": r["failed"], "wrong": r["wrong"],
                              "nproc": r["nproc"], "isa": r["isa"],
                              "trace_compiled": r["trace_compiled"],
                              "metrics": r["selected"]} for r in results}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
