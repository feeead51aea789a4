#!/usr/bin/env python3
"""Paired, alternating perfbench runs of two checkouts on one host.

Runs `python3 perfbench/run.py` in a base and a head checkout in turn
(base first in odd pairs, head first in even ones, so slow drift of the
host hits both sides alike) and summarises one end-to-end metric:

  - each pair's values and whether head won it;
  - the median and interquartile range (IQR) of each side;
  - the median gain of head over base, in the metric's own direction.

A gain is shown to hold when head wins at least 9 runs in 10 and the
median gain is larger than the base's IQR. Every other end-to-end metric
of BENCHMARK.json is listed with both medians and flagged when head's
median is worse than base's by more than the metric's bound. Every run
must also report `"correct": true`; a run that does not is an error, not
a data point.

Usage:
    perfbench_pairs.py --base DIR [--head DIR] [--workload paper_matrix]
        [--metric core_mcycles_per_s] [--pairs 10] [--seconds 25]
        [--seed 42]
    perfbench_pairs.py --self-test

Each checkout builds into its own DIR/.bench_build. The metric's
direction is read from the head's BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)

    def q(p):
        pos = p * (len(xs) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return q(0.25), q(0.5), q(0.75)


def summarize(base, head, higher_is_better):
    """Win count, medians, base IQR and the verdict for paired values."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    gain = sign * (hmed - bmed)
    return {
        "pairs": len(base),
        "wins": wins,
        "base_median": bmed,
        "head_median": hmed,
        "base_iqr": bq3 - bq1,
        "gain": gain,
        "gain_pct": 100.0 * gain / bmed if bmed else float("nan"),
        "holds": wins * 10 >= 9 * len(base) and gain > bq3 - bq1,
    }


def run_once(checkout, args):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.exit(f"{checkout}: output check failed: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def regressed(base, head, metric):
    """True when head's median is worse than base's by more than the bound."""
    _, bmed, _ = quartiles(base)
    _, hmed, _ = quartiles(head)
    worse = hmed - bmed if metric["better"] == "lower" else bmed - hmed
    return worse > metric["bound"] * abs(bmed)


def self_test():
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    s = summarize([10, 11, 12, 10, 11], [13, 14, 12, 14, 13], True)
    assert s["wins"] == 4 and s["gain"] == 2 and s["base_iqr"] == 1 and not s["holds"]
    s = summarize([10] * 9 + [12], [13] * 10, True)
    assert s["wins"] == 10 and s["holds"]
    # Lower-is-better metrics count a drop as the gain.
    s = summarize([5.0] * 10, [4.0] * 10, False)
    assert s["wins"] == 10 and s["gain"] == 1.0 and s["holds"]
    s = summarize([5.0] * 10, [4.0] * 8 + [6.0] * 2, False)
    assert s["wins"] == 8 and not s["holds"]
    lower = {"better": "lower", "bound": 0.25}
    assert not regressed([4.0] * 3, [5.0] * 3, lower)
    assert regressed([4.0] * 3, [5.1] * 3, lower)
    assert regressed([4.0] * 3, [2.9] * 3, {"better": "higher", "bound": 0.25})
    print("perfbench_pairs self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base")
    parser.add_argument("--head", default=".")
    parser.add_argument("--workload", default="paper_matrix")
    parser.add_argument("--metric", default="core_mcycles_per_s")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base:
        parser.error("--base is required")
    base_dir, head_dir = os.path.abspath(args.base), os.path.abspath(args.head)

    with open(os.path.join(head_dir, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    if args.metric not in spec:
        parser.error(f"{args.metric} is not an end-to-end metric of BENCHMARK.json")
    higher = spec[args.metric]["better"] == "higher"

    base, head = [], []
    for i in range(args.pairs):
        order = [(base_dir, base), (head_dir, head)]
        if i % 2:
            order.reverse()
        for checkout, runs in order:
            runs.append(run_once(checkout, args))
        print(f"pair {i + 1:2d}: base {base[-1][args.metric]:.4g}  "
              f"head {head[-1][args.metric]:.4g}", flush=True)

    for name, metric in spec.items():
        b = [r[name] for r in base]
        h = [r[name] for r in head]
        flag = "REGRESSED" if regressed(b, h, metric) else "ok"
        print(f"{name:20s} base {quartiles(b)[1]:12.6g}  head {quartiles(h)[1]:12.6g}  "
              f"bound {metric['bound']:.2f}  {flag}")
    b = [r[args.metric] for r in base]
    h = [r[args.metric] for r in head]
    print(json.dumps({"workload": args.workload, "metric": args.metric, "seed": args.seed,
                      "seconds": args.seconds, "base": b, "head": h,
                      **summarize(b, h, higher)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
