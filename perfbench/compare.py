#!/usr/bin/env python3
"""Compare two sets of benchmark results measured on the same host.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are result files written by `run.py` (to `perfbench/out/`)
or directories of them. Results are grouped by workload and trace mode, and
each metric is reduced to its median over the group's runs. An end-to-end
metric whose AFTER median is worse than BEFORE by more than its bound in
`BENCHMARK.json` is flagged as a regression.

The comparison is refused (exit code 2) unless every result of a workload
carries the same host fingerprint: core count, CPU model, rustc version and
driver threads. The git revision is recorded in each result and shown, never
compared.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu_model", "rustc", "driver_threads")


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    results = []
    for f in files:
        with open(f) as fh:
            results.append(json.load(fh))
    if not results:
        sys.exit(f"compare: no results in {path}")
    return results


def host(result):
    return {k: result["fingerprint"][k] for k in HOST_KEYS}


def medians(results):
    groups = {}
    for r in results:
        key = (r["workload"], r["trace"])
        for name, m in r["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {key: {name: (unit, statistics.median(values), len(values))
                  for name, (unit, values) in metrics.items()}
            for key, metrics in groups.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    hosts = {}
    for r in before + after:
        hosts.setdefault((r["workload"], r["trace"]), set()).add(json.dumps(host(r), sort_keys=True))
    unlike = {key: h for key, h in hosts.items() if len(h) > 1}
    if unlike:
        print("compare: refusing to compare results from different hosts:", file=sys.stderr)
        for (workload, trace), h in sorted(unlike.items()):
            for fingerprint in sorted(h):
                print(f"  {workload} (trace={trace}): {fingerprint}", file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: (m["bound"], m["better"]) for m in json.load(f)["end_to_end"]}
    revs = lambda rs: ", ".join(sorted({r["fingerprint"]["git"][:12] for r in rs}))
    print(f"before: git {revs(before)}; after: git {revs(after)}")
    regressions = 0
    b, a = medians(before), medians(after)
    for key in sorted(set(b) & set(a)):
        workload, trace = key
        print(f"\n{workload} (trace={trace}) on {hosts[key].pop()}")
        for name in sorted(set(b[key]) & set(a[key])):
            unit, mb, nb = b[key][name]
            _, ma, na = a[key][name]
            change = (ma - mb) / mb if mb else float("nan")
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                verdict = "REGRESSION" if worse > bound else "ok"
                regressions += verdict == "REGRESSION"
            print(f"  {name:34} {mb:>14.6g} -> {ma:>14.6g} {unit:6} {change:+8.2%} "
                  f"(n={nb}/{na}) {verdict}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
