"""Alternate the benchmark between two checkouts and record every run.

Run from the repository root, with a checkout of the parent commit beside
it (a ``git worktree`` or a clone):

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seed 7 --out BENCH_<n>.json

For each of the two workloads, each of ten pairs i runs
``perfbench/run.py --workload W --seed S --trace 0`` once in each checkout,
at the benchmark's default run length; even pairs start with the parent,
odd pairs with the change.  Each run is its own process, started in its
checkout, so each side benchmarks its own sources with its own harness.
Before the first pair, each checkout's cached problem bundles
(``perfbench/.cache/bundles``) are deleted, so that each side generates
its own: the cache is keyed by workload and seed only, and a bundle that
other code generated fails the harness's check that it equals the
generated problem.  The JSON written to ``--out`` holds every run's
metrics, each side's median and quartiles per metric, how many
pairs the change won per metric (ties count for neither side; the better
direction of a metric is read from the change's ``BENCHMARK.json``), both
commits and the environment line of the first run.
The exit code is 1 when any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("true-rank", "over-rank")
SIDES = ("parent", "change")
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark process in ``checkout``: its result line and env."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: {workload} in {checkout} printed no result "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode,
            "env": env, **result}


def quartiles(xs) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs, better) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    out = {}
    for key in runs[0]["metrics"]:
        sign = 1.0 if better[key] == "lower" else -1.0
        side_values = {s: [r["metrics"][key]["value"] for r in runs
                           if r["side"] == s] for s in SIDES}
        wins = sum(sign * (p["change"][key]["value"]
                           - p["parent"][key]["value"]) < 0
                   for p in by_pair.values())
        out[key] = {"unit": runs[0]["metrics"][key]["unit"],
                    "better": "lower" if sign > 0 else "higher",
                    **{s: quartiles(v) for s, v in side_values.items()},
                    "change_wins": int(wins), "pairs": len(by_pair)}
    return out


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {"command": "python3 perfbench/run.py --workload W --seed "
                        f"{args.seed} --trace 0",
              "seed": args.seed, "pairs": PAIRS,
              "commits": {s: commit_of(c) for s, c in checkouts.items()},
              "env": None, "workloads": {}}
    for checkout in checkouts.values():
        shutil.rmtree(checkout / "perfbench" / ".cache" / "bundles",
                      ignore_errors=True)
    failed = False
    for workload in WORKLOADS:
        runs = []
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                res = run_once(checkouts[side], workload, args.seed)
                env = res.pop("env")
                record["env"] = record["env"] or env
                runs.append({"pair": pair, "side": side, **res})
                failed = failed or not res["correct"] or res["exit"] != 0
                solve = res["metrics"].get("solve_s", {}).get("value")
                print(f"{workload} pair {pair} {side}: solve_s {solve} "
                      f"correct {res['correct']}", flush=True)
        record["workloads"][workload] = {"runs": runs,
                                         "summary": summarize(runs, better)}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, data in record["workloads"].items():
        for key, m in data["summary"].items():
            sides = "  ".join(
                f"{s} {m[s]['median']:.6g} [{m[s]['q1']:.6g}, "
                f"{m[s]['q3']:.6g}]" for s in SIDES)
            print(f"{workload:<10} {key:<14} {sides}  "
                  f"change wins {m['change_wins']}/{m['pairs']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
