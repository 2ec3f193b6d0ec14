"""Repeat the benchmark over seeds and report the spread of every metric.

    python3 perfbench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 [--out FILE]

For every workload in ``BENCHMARK.json`` it runs ``run.py`` in a fresh
process, from the root of the checkout: two sets over the seed list, one set
that repeats seed ``REPEAT_SEED`` as many times, and one traced run at seed
``TRACE_SEED``.  For each end-to-end metric and set it prints the median and
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and the second set's median against
the first's.  The same-seed set has no seed-to-seed variation in its inputs,
so its spread next to a cross-seed spread tells host noise apart from a
difference in work between seeds.  ``--out`` writes every run's result,
detail line (including the raw seconds and the host clock) and the spreads as one JSON
record, with the git revision when the checkout is a git repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
SETS = 2
REPEAT_SEED = 1
TRACE_SEED = 1


def run_once(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    detail.pop("job_records", None)
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "result": result, "detail": detail}


def run_set(workload, seeds, label):
    runs = []
    for seed in seeds:
        rec = run_once(workload, seed, 0)
        rec["set"] = label
        runs.append(rec)
        res = rec["result"]
        detail = rec["detail"]
        print(f"{workload} {label} seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} elapsed={rec['elapsed_s']:.1f}s "
              f"wall_s={detail['wall_s']:.4g} unit_us={detail['host_clock']['unit_s'] * 1e6:.1f} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    runs, summary = [], {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        sets = {}
        for index in range(SETS):
            sets[f"set {index + 1}"] = run_set(workload, args.seeds, f"set {index + 1}")
        sets["same seed"] = run_set(workload, [REPEAT_SEED] * len(args.seeds), "same seed")
        for mine in sets.values():
            runs += mine
        rec = run_once(workload, TRACE_SEED, 1)
        runs.append(rec)
        print(f"{workload} traced seed {TRACE_SEED}: elapsed={rec['elapsed_s']:.1f}s "
              f"overhead={rec['result']['metrics']['trace.overhead_frac']['value']:.3f}",
              flush=True)

        summary[workload] = {}
        for label, mine in sets.items():
            table = {}
            for name in bounds:
                s = spread([r["result"]["metrics"][name]["value"] for r in mine])
                s["bound"] = bounds[name]
                if label != "set 1":
                    first = summary[workload]["set 1"][name]["median"]
                    s["worse_than_set_1"] = (s["median"] - first) / first
                table[name] = s
                flag = "" if s["iqr_over_median"] <= bounds[name] / 3 else "  <-- above bound/3"
                shift = f"  vs set 1 {s['worse_than_set_1']:+.3f}" if label != "set 1" else ""
                print(f"  {workload:10s} {label:9s} {name:12s} median {s['median']:.4g}  "
                      f"iqr/median {s['iqr_over_median']:.3f}  bound {bounds[name]}"
                      f"{shift}{flag}", flush=True)
            summary[workload][label] = table

    if args.out:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        record = {
            "git_rev": rev.stdout.strip() if rev.returncode == 0 else None,
            "run_seconds": BENCH["run_seconds"],
            "seeds": args.seeds,
            "sets": SETS,
            "repeat_seed": REPEAT_SEED,
            "trace_seed": TRACE_SEED,
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
