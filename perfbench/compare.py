#!/usr/bin/env python3
"""Collect benchmark runs, summarise them, and judge a change against its parent.

    # ten seeds of this checkout, every workload
    python3 perfbench/compare.py collect --out runs.jsonl --seeds 1-10
    python3 perfbench/compare.py summary runs.jsonl

    # ten alternating pairs of parent and change, then the verdicts
    python3 perfbench/compare.py pairs --parent ../parent --change . --out-dir cmp
    python3 perfbench/compare.py judge cmp/parent.jsonl cmp/change.jsonl

Both checkouts must carry the same benchmark files. Every run measures for
BENCHMARK.json's run_seconds. Pair i (0 to 9) runs seed i + 1 on both sides,
the parent first on even i and the change first on odd i. The verdict on a
metric, per workload:

- unresolved: either side's spread between quartiles, as a share of its
  median, is wider than the metric's bound, and not every run of the change
  reads better than every run of the parent;
- regression: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- gain: the change is better in at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's spread
  between quartiles;
- no change: anything else.

Figures in EXACT repeat exactly for a seed, so their spread across seeds is
not noise: they are never unresolved, only judged on the pairs.

End-to-end metrics and bounds come from BENCHMARK.json; QUALITY adds the
retarget quality figures that every run prints in its detail line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_FILES = ("run.py", "workloads.py", "spans.py", "speed.py")

# Retarget quality from the detail line: name -> (better, bound). They repeat
# exactly for a seed, so any move is the program's, and 5% is a real loss.
QUALITY = {
    "max_marker_residual_m": ("lower", 0.05),
    "mean_marker_residual_m": ("lower", 0.05),
    "converged_frac": ("higher", 0.05),
}
# Figures that repeat exactly for a seed: they have no run-to-run noise, so
# they are judged on the paired differences alone and are never unresolved.
EXACT = {"recon_mpjpe_mrad", *QUALITY}
WIN_SHARE = 0.9
PAIRS = 10
RUN_TIMEOUT_S = 900


def load_spec(root=ROOT):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def metric_rules(spec):
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update(QUALITY)
    return rules


# --- the rule ----------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else math.inf)


def verdict(parent, change, better, bound, exact=False):
    """Judge paired samples; parent[i] and change[i] ran as one pair."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of parent and change samples")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain_by = sign * (c_med - p_med)  # > 0: the change is better
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if not exact and max(spread(parent), spread(change)) > bound and not all_better:
        status = "unresolved"
    elif -gain_by > bound * abs(p_med):
        status = "regression"
    elif wins >= math.ceil(WIN_SHARE * len(parent)) and gain_by > p_q3 - p_q1:
        status = "gain"
    else:
        status = "no change"
    return {
        "status": status, "pairs": len(parent), "wins": wins, "losses": losses,
        "parent_median": p_med, "change_median": c_med,
        "parent_spread": spread(parent), "change_spread": spread(change), "bound": bound,
    }


# --- records -------------------------------------------------------------------


def values_of(record):
    """Every figure of one run: its metrics, the quality figures and, untraced,
    the throughput before scaling to the reference machine speed."""
    out = {k: m["value"] for k, m in record["result"]["metrics"].items()}
    for k in QUALITY:
        v = record["detail"]["quality"].get(k)
        if v is not None:
            out[k] = v
    if record["detail"]["trace"] == 0:
        out["throughput_wall_fps"] = record["detail"]["throughput_wall_fps"]
    return out


def read_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def judge(parent_records, change_records, rules):
    """{workload: {metric: verdict}} over runs paired by workload and seed."""
    def index(records):
        return {(r["workload"], r["seed"]): r for r in records if r["detail"]["trace"] == 0}

    parent, change = index(parent_records), index(change_records)
    rows = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        rows[workload] = {}
        p_runs = [values_of(parent[(workload, s)]) for s in seeds]
        c_runs = [values_of(change[(workload, s)]) for s in seeds]
        for name, (better, bound) in rules.items():
            if all(name in r for r in p_runs + c_runs):
                rows[workload][name] = verdict(
                    [r[name] for r in p_runs], [r[name] for r in c_runs], better, bound,
                    exact=name in EXACT,
                )
        failed = [not change[(workload, s)]["result"]["correct"] for s in seeds]
        rows[workload]["correct"] = not any(failed)
    return rows


def print_judgement(rows):
    for workload, metrics in rows.items():
        cells = [
            f"{name} {v['status']} ({v['change_median']:.6g} vs {v['parent_median']:.6g}, "
            f"{v['wins']}/{v['pairs']} wins)"
            for name, v in metrics.items() if name != "correct"
        ]
        ok = "" if metrics["correct"] else "  CHANGE FAILED CHECKS"
        print(f"{workload}: " + "; ".join(cells) + ok)


def summarise(records, rules):
    """Median, quartiles and spread of each figure, per workload and trace mode."""
    out = {}
    for rec in records:
        key = f"{rec['workload']}/trace{rec['detail']['trace']}"
        out.setdefault(key, {"seeds": [], "correct": True, "values": {},
                             "environment": rec["detail"]["environment"]})
        entry = out[key]
        entry["seeds"].append(rec["seed"])
        entry["correct"] = entry["correct"] and rec["result"]["correct"]
        for name, value in values_of(rec).items():
            entry["values"].setdefault(name, []).append(value)
    for entry in out.values():
        entry["stats"] = {}
        for name, values in entry["values"].items():
            q1, median, q3 = quartiles(values)
            stat = {"median": median, "q1": q1, "q3": q3, "spread": spread(values)}
            if name in rules:
                stat["bound"] = rules[name][1]
                stat["within_third"] = stat["spread"] < rules[name][1] / 3.0
            entry["stats"][name] = stat
    return out


# --- running -------------------------------------------------------------------


def bench_digest(checkout):
    h = hashlib.sha256()
    for name in BENCH_FILES:
        h.update((Path(checkout) / "perfbench" / name).read_bytes())
    return h.hexdigest()


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in checkout; the record of its result."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    return {
        "checkout": str(checkout), "workload": workload, "seed": seed,
        "wall_s": time.perf_counter() - start,
        "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1]),
    }


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    every = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    p = sub.add_parser("collect", help="run seeds of every workload in this checkout")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)

    p = sub.add_parser("pairs", help="alternating parent/change pairs, then judge")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("judge", help="verdicts from two saved result sets")
    p.add_argument("parent")
    p.add_argument("change")

    p = sub.add_parser("summary", help="medians and spreads of one result set")
    p.add_argument("records")
    p.add_argument("--json", help="also write the summary here")

    args = parser.parse_args(argv)
    rules = metric_rules(spec)

    if args.mode == "collect":
        for workload in every:
            for seed in parse_seeds(args.seeds):
                rec = run_once(ROOT, workload, seed, seconds, args.trace)
                append(args.out, rec)
                print(f"{workload} seed {seed}: {values_of(rec)}", flush=True)
        return 0

    if args.mode == "pairs":
        if bench_digest(args.parent) != bench_digest(args.change):
            print("the two checkouts carry different benchmark code", file=sys.stderr)
            return 2
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        sides = {"parent": Path(args.parent), "change": Path(args.change)}
        for workload in every:
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    rec = run_once(sides[side], workload, i + 1, seconds, 0)
                    rec["order"] = list(order)
                    append(out_dir / f"{side}.jsonl", rec)
        print_judgement(judge(read_records(out_dir / "parent.jsonl"),
                              read_records(out_dir / "change.jsonl"), rules))
        return 0

    if args.mode == "judge":
        print_judgement(judge(read_records(args.parent), read_records(args.change), rules))
        return 0

    summary = summarise(read_records(args.records), rules)
    for key, entry in summary.items():
        print(f"{key}: seeds {entry['seeds']} correct {entry['correct']}")
        for name, s in entry["stats"].items():
            flag = "" if s.get("within_third", True) else "  SPREAD ABOVE A THIRD OF BOUND"
            print(f"  {name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
