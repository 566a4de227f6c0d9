#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 perfbench/run.py --workload <battle|fig1-long|mega>
        [--seed <n|pinned>] [--seconds <s>] [--trace <0|1>]

Run from anywhere inside a checkout of the repository. The program is built
from source with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root).

`--trace 0` measures the end-to-end metrics through the real entry points;
`--trace 1` runs the traced pass and reports the per-layer metrics. Without
`--seed` the scenarios' pinned seeds run and every report is compared with its
golden; any other seed derives fresh inputs. Human-readable lines go first;
the last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The full result, with the host
fingerprint, is also written to `perfbench/out/`. Exits non-zero if any run
fails its output check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join("perfbench", "out")
WORKLOADS = ("battle", "fig1-long", "mega")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark program; return the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "mmptcp", "Cargo.toml")):
        fail("no simulator sources beside perfbench/ (crates/mmptcp is missing)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")
    return os.path.join(target, "release", "perfbench")


def command_output(args):
    # A checkout that is not a git repository must not report the revision
    # of some repository above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(nproc, threads):
    """The host a result was measured on. `compare.py` compares results only
    when everything but `git` matches."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "driver_threads": threads,
        "git": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", default="pinned")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed != "pinned" and not args.seed.isdigit():
        parser.error("--seed takes a non-negative integer or 'pinned'")

    exe = build()
    command = "trace" if args.trace else "measure"
    proc = subprocess.run(
        [exe, command, "--workload", args.workload, "--seed", args.seed,
         "--seconds", str(args.seconds), "--out", OUT_DIR],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"the benchmark program exited with code {proc.returncode} without a result")

    host = fingerprint(outcome["nproc"], outcome["driver_threads"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": host,
        **{k: outcome[k] for k in ("attempted", "failed", "metrics", "info", "failures")},
    }
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(ROOT, path), "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({host['nproc']} x {host['cpu_model']}, {host['rustc']}, "
          f"git {host['git']}, {host['driver_threads']} driver threads)")
    for name, m in outcome["metrics"].items():
        print(f"  {name:34} {m['value']:>16.6g} {m['unit']}")
    for name, m in outcome["info"].items():
        print(f"  {name:34} {m['value']:>16.6g} {m['unit']}  (not gated)")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  {'failed_frac':34} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} runs)")
    print(f"  result written to {path}")
    print(json.dumps({
        "correct": failed == 0 and proc.returncode == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": outcome["metrics"],
    }))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
