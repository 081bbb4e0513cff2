#!/usr/bin/env python3
"""Compares run-sets of the end-to-end benchmark.

A run-set is a JSON-lines file of bench/e2e/run.py results, one line per
workload run, as `run.py --record FILE` appends them. Bounds and metric
directions come from BENCHMARK.json.

  compare.py summary SET...
      Per workload x metric: runs, median, quartiles, and the quartile
      spread as a share of the median.

  compare.py same SET_A SET_B
      Two run-sets of one commit agree when, for every workload x
      end-to-end metric, the medians differ by less than the metric's
      bound and each set's quartile spread stays within the bound
      (setup_s: medians only). Exit 1 otherwise. A spread above a third
      of the bound is flagged "wide": the bound leaves little margin.

  compare.py pairs --parent DIR --change DIR [--pairs 10] [--seed 1000]
                   [--workload W ...] [--out DIR]
      The parent-versus-change protocol: runs run.py in the two checkouts
      as alternating pairs (which side goes first alternates), one fresh
      seed per pair, then prints the verdict below. Both run-sets are kept
      under --out.

  compare.py verdict PARENT_SET CHANGE_SET
      Pairs runs by workload and seed. Per workload x end-to-end metric:
        improved   the change wins at least 9/10 of the pairs (ties count
                   for neither) and the medians differ by more than the
                   parent's quartile spread;
        regressed  the change's median is worse than the parent's by more
                   than the bound;
        unresolved the parent's spread is wider than the bound, unless
                   every change run beats every parent run;
        same       otherwise: within the bound.
      Exit 1 when any metric regressed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return spec, e2e, layer


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs += [json.loads(line) for line in f if line.strip()]
    return runs


def by_workload_metric(runs):
    """{(workload, metric): [values in run order]}"""
    table = defaultdict(list)
    for r in runs:
        for name, m in r["metrics"].items():
            table[(r["workload"], name)].append(m["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def cmd_summary(args):
    _, e2e, layer = load_spec()
    table = by_workload_metric(load_runs(args.sets))
    print(f"{'workload':8} {'metric':38} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for (workload, name), values in sorted(table.items()):
        if name not in e2e and name not in layer:
            continue
        q1, med, q3 = quartiles(values)
        print(f"{workload:8} {name:38} {len(values):3} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {spread(values):8.4f}")
    return 0


def cmd_same(args):
    _, e2e, _ = load_spec()
    a = by_workload_metric(load_runs([args.set_a]))
    b = by_workload_metric(load_runs([args.set_b]))
    ok = True
    for (workload, name), va in sorted(a.items()):
        if name not in e2e or (workload, name) not in b:
            continue
        vb = b[(workload, name)]
        bound = e2e[name]["bound"]
        ma, mb = statistics.median(va), statistics.median(vb)
        diff = abs(mb - ma) / abs(ma) if ma else 0.0
        sa, sb = spread(va), spread(vb)
        good = diff < bound
        wide = False
        if name != "setup_s":
            good = good and max(sa, sb) <= bound
            wide = max(sa, sb) >= bound / 3
        ok = ok and good
        verdict = "FAIL" if not good else "ok (wide)" if wide else "ok"
        print(f"{workload:8} {name:22} median {ma:11.5g} -> {mb:11.5g} "
              f"diff {diff:7.4f} spread {sa:7.4f}/{sb:7.4f} bound {bound:5.3f}"
              f"  {verdict}")
    return 0 if ok else 1


def better(x, y, direction):
    """True when x reads better than y."""
    return x < y if direction == "lower" else x > y


def verdict(parent_runs, change_runs):
    _, e2e, _ = load_spec()
    parent = {(r["workload"], r["seed"]): r for r in parent_runs}
    change = {(r["workload"], r["seed"]): r for r in change_runs}
    keys = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _ in keys})
    regressed = False
    print(f"{'workload':8} {'metric':22} {'pairs':>5} {'wins':>4} "
          f"{'parent':>11} {'change':>11} {'delta':>8} {'p.spread':>8} "
          f"{'bound':>6}  verdict")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        for name, m in e2e.items():
            pv = [parent[(workload, s)]["metrics"][name]["value"]
                  for s in seeds]
            cv = [change[(workload, s)]["metrics"][name]["value"]
                  for s in seeds]
            direction, bound = m["better"], m["bound"]
            wins = sum(better(c, p, direction) for p, c in zip(pv, cv))
            pq1, pmed, pq3 = quartiles(pv)
            cmed = statistics.median(cv)
            delta = (cmed - pmed) / abs(pmed) if pmed else 0.0
            worse = -delta if direction == "higher" else delta
            p_spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
            all_better = all(better(c, p, direction) for c in cv for p in pv)
            if p_spread > bound and not all_better:
                result = "unresolved"
            elif worse > bound:
                result = "regressed"
                regressed = True
            elif (wins >= 0.9 * len(seeds) and abs(cmed - pmed) > pq3 - pq1
                  and worse < 0):
                result = "improved"
            else:
                result = "same"
            print(f"{workload:8} {name:22} {len(seeds):5} {wins:4} "
                  f"{pmed:11.5g} {cmed:11.5g} {delta:+8.4f} {p_spread:8.4f} "
                  f"{bound:6.3f}  {result}")
    return 1 if regressed else 0


def cmd_verdict(args):
    return verdict(load_runs([args.parent_set]), load_runs([args.change_set]))


def cmd_pairs(args):
    spec, _, _ = load_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sets = {"parent": out / "parent.jsonl", "change": out / "change.jsonl"}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                tree = Path(getattr(args, side)).resolve()
                cmd = [sys.executable, str(tree / "bench" / "e2e" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--record", str(sets[side].resolve())]
                proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    print(f"{side} {workload} seed {seed}: run.py exited "
                          f"{proc.returncode}", file=sys.stderr)
                    return 1
    return verdict(load_runs([sets["parent"]]), load_runs([sets["change"]]))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("summary")
    p.add_argument("sets", nargs="+")
    p.set_defaults(fn=cmd_summary)
    p = sub.add_parser("same")
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.set_defaults(fn=cmd_same)
    p = sub.add_parser("verdict")
    p.add_argument("parent_set")
    p.add_argument("change_set")
    p.set_defaults(fn=cmd_verdict)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--workload", action="append")
    p.add_argument("--out", default="build-bench/pairs")
    p.set_defaults(fn=cmd_pairs)
    args = parser.parse_args()
    if args.cmd == "pairs" and args.pairs < 10:
        parser.error("the protocol needs at least 10 pairs")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
