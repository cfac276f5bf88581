#!/usr/bin/env python3
"""Wall-time gate: acbench suite-cold on a parent checkout and a change, side by side.

    python3 .github/scripts/bench_gate.py run PARENT CHANGE
    python3 .github/scripts/bench_gate.py compare PARENT.jsonl CHANGE.jsonl

`run` makes 5 pairs of runs, seeds 0-4, with the parent first in even
pairs and the change first in odd ones. Each run is one full round of
the paper suite:

    bash crates/bench/src/bin/acbench/run.sh --workload suite-cold \\
        --seed <i> --seconds 1 --trace 0

from the root of each checkout. It appends each run's result line (the
last line acbench prints, one JSON object) to bench-gate/parent.jsonl and
bench-gate/change.jsonl in the working directory, then compares them.
`compare` gates recorded result lines.

The gate fails when a run is not `correct` or has failed operations, when
the change's median `procs_per_s` is more than 15% below the parent's, or
when its median `cpu_ms_per_proc` is more than 15% above. Both sides run
on one machine minutes apart, so no number recorded elsewhere is involved.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
BOUND = 0.15
METRICS = [
    "setup_s",
    "procs_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "cpu_ms_per_proc",
    "rss_mean_mb",
]
# (metric, the direction in which it gets worse)
GATED = [("procs_per_s", "lower"), ("cpu_ms_per_proc", "higher")]


def acbench(checkout, seed):
    cmd = [
        "bash", "crates/bench/src/bin/acbench/run.sh", "--workload", "suite-cold",
        "--seed", str(seed), "--seconds", "1", "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"bench gate failed: acbench exited {out.returncode} in {checkout}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(parent, change):
    results = Path("bench-gate")
    results.mkdir(exist_ok=True)
    paths = {side: results / f"{side}.jsonl" for side in ("parent", "change")}
    for path in paths.values():
        path.write_text("")
    for seed in range(PAIRS):
        order = [("parent", parent), ("change", change)]
        # Alternate which side runs first, so drift on the runner
        # weighs on both sides alike.
        for side, checkout in order if seed % 2 == 0 else order[::-1]:
            line = acbench(checkout, seed)
            with paths[side].open("a") as f:
                f.write(json.dumps(line) + "\n")
            print(f"seed {seed} {side}: " + ", ".join(
                f"{m} {line['metrics'][m]['value']:.4g}" for m in METRICS), flush=True)
    return compare(paths["parent"], paths["change"])


def load(path):
    return [json.loads(l) for l in Path(path).read_text().splitlines() if l.strip()]


def compare(parent_path, change_path):
    sides = {"parent": load(parent_path), "change": load(change_path)}
    failures = []
    for side, lines in sides.items():
        if not lines:
            failures.append(f"{side}: no result lines")
        for i, line in enumerate(lines):
            if not line["correct"] or line["failed"] != 0:
                failures.append(f"{side} run {i}: correct={line['correct']}, "
                                f"{line['failed']} failed operation(s)")
    if failures:
        return fail(failures)
    medians = {}
    print(f"\n{'metric':<16} {'side':<7} {'median':>10} {'q1':>10} {'q3':>10}")
    for metric in METRICS:
        for side, lines in sides.items():
            values = [line["metrics"][metric]["value"] for line in lines]
            q1, median, q3 = (statistics.quantiles(values, n=4)
                              if len(values) > 1 else values * 3)
            medians[side, metric] = median
            print(f"{metric:<16} {side:<7} {median:>10.4g} {q1:>10.4g} {q3:>10.4g}")
    for metric, worse in GATED:
        base, cur = medians["parent", metric], medians["change", metric]
        change = cur / base - 1
        print(f"{metric}: median {base:.4g} -> {cur:.4g} ({100 * change:+.1f}%)")
        if (change < -BOUND) if worse == "lower" else (change > BOUND):
            failures.append(f"{metric} median {base:.4g} -> {cur:.4g} "
                            f"({100 * change:+.1f}%, bound {100 * BOUND:.0f}%)")
    if failures:
        return fail(failures)
    print("bench gate ok")
    return 0


def fail(failures):
    print("bench gate failed:\n  " + "\n  ".join(failures))
    return 1


def main(argv):
    if len(argv) == 3 and argv[0] == "run":
        return run(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("usage: bench_gate.py run PARENT CHANGE\n"
          "       bench_gate.py compare PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
