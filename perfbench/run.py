#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the `perfbench` package (release, offline) against the repository's
crates and runs one workload; the last line of standard output is the
result JSON. Cargo's target directory is `CARGO_TARGET_DIR`, or
`.bench_build` at the repository root when that is unset.

Steadiness mode:

    python3 perfbench/run.py --steadiness [--runs 10] [--seconds S]
                             [--workloads a,b] [--first-seed N]

runs every workload `--runs` times with a different seed each time,
alternating the workload order between rounds, and prints the median,
quartiles and quartile spread (as a share of the median) of every
end-to-end metric next to its bound in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must finish within the harness limit of 180 s.
RUN_TIMEOUT_S = 175


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    binary = os.path.join(target_dir(), "release", "perfbench")
    if not os.path.isfile(binary):
        sys.exit(f"perfbench: no binary at {binary}")
    return binary


def run_once(binary, args, quiet=False):
    """Run the benchmark binary; return (exit code, stdout, stderr). With
    `quiet`, its standard error is captured instead of passed through."""
    try:
        done = subprocess.run(
            [binary] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if quiet else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return done.returncode, done.stdout, done.stderr or ""


def single(argv):
    binary = build()
    code, out, _ = run_once(binary, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


def option(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 >= len(argv):
            sys.exit(f"perfbench: {name} needs a value")
        return argv[i + 1]
    return default


def steadiness(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = int(option(argv, "--runs", "10"))
    seconds = option(argv, "--seconds", str(spec["run_seconds"]))
    first_seed = int(option(argv, "--first-seed", "1"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = option(argv, "--workloads", ",".join(names)).split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = build()

    values = {w: {m: [] for m in bounds} for w in workloads}
    shares = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            args = ["--workload", w, "--seed", str(first_seed + i),
                    "--seconds", seconds, "--trace", "0"]
            code, out, err = run_once(binary, args, quiet=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                sys.exit(f"{err}perfbench: {w} seed {first_seed + i} exited {code}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{err}perfbench: {w} seed {first_seed + i} failed its output checks")
            shares[w].append(result["failed"] / result["attempted"])
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"run {i + 1}/{runs} {w}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds), flush=True)

    summary = {}
    print(f"\n{'workload':<14} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  steady")
    for w in workloads:
        summary[w] = {"failed_share": sorted(set(shares[w]))}
        for m, bound in bounds.items():
            v = values[w][m]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            steady = "yes" if spread <= bound / 3 else ("set-up" if m == "setup_s" else "NO")
            summary[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{w:<14} {m:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6}  {steady}")
        print(f"{w:<14} failed share across runs: {summary[w]['failed_share']}")
    print(json.dumps(summary))


def main():
    argv = sys.argv[1:]
    if "--steadiness" in argv:
        argv.remove("--steadiness")
        steadiness(argv)
    else:
        single(argv)


if __name__ == "__main__":
    main()
