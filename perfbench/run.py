"""poisskit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 20 --trace 0

Run it from the root of a poisskit checkout; it imports ``poisskit`` from
``./src`` and exits with status 2, printing no result, when that is missing.

The workload is a closed loop with one client: the run's fixed job list
(see ``workloads.py``) is executed one job at a time on one thread, each job
timed on its own.  After the timed region every job's output is checked by
value against an oracle (``oracles.py``).  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it executes the same job list once
untraced and once with spans around poisskit's public functions
(``tracing.py``) and reports the per-layer metrics.

Job times are reported in probe units: seconds divided by the mean time of a
short fixed pure-Python loop (the host clock, ``HostClock``) that is timed
after every job of the same run.  On a shared 2-core x86 VM the speed of
pure-Python code swings by up to 1.9x, in spells of milliseconds to minutes;
a job and the loop timed next to it slow down alike, so the ratio keeps the
program's speed and drops most of the host's (perfbench/DESIGN.md).

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is a
``{"detail": ...}`` object with every job's time in seconds and verdict, the
run's raw times in seconds, the tail percentile used, and the host clock's
readings.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Write no bytecode: sympy and numpy are imported from outside the checkout.
sys.dont_write_bytecode = True

import tracing  # noqa: E402
import workloads  # noqa: E402

# Import timings per run: some before the workload, one after every
# SETUP_EVERY_S seconds of job time, and some after it, so that the median
# spans the host's speed over the whole run.
SETUP_BEFORE, SETUP_EVERY_S, SETUP_AFTER = 4, 2.0, 3
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import poisskit.cli; "
    "print(time.perf_counter() - t)"
)
TRACE_DIR = ".perfbench"


# The host clock's loop: a Fraction sum of this many terms, about 0.25 ms.
PROBE_TERMS = 120
# Loops timed after a job: this many, plus one per PROBE_PER_S of the job's
# time, so that the mean weighs each stretch of the run by its length.
PROBE_MIN_LOOPS = 5
PROBE_PER_S = 0.01


def _probe_loop():
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS):
        acc += Fraction(1, i)
    return acc


class HostClock:
    """Times a fixed pure-Python loop after every job.  The mean loop time
    over a run is the run's unit of time: how slow the host was, on average,
    while the jobs ran.  It depends on the host only, never on poisskit."""

    def __init__(self):
        self.samples = []

    def tick(self, job_seconds):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the job's garbage is not host time
        try:
            _probe_loop()  # untimed: refills the caches the job evicted
            for _ in range(PROBE_MIN_LOOPS + int(job_seconds / PROBE_PER_S)):
                t = time.perf_counter()
                _probe_loop()
                self.samples.append(time.perf_counter() - t)
        finally:
            if enabled:
                gc.enable()

    def unit(self):
        return statistics.fmean(self.samples)


def time_imports(src, count):
    """Seconds to import poisskit.cli in each of ``count`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip()))
    return samples


# -- executing jobs ------------------------------------------------------------


def _structure(pk, doc):
    manifest = pk.cli.load_manifest(doc)
    return manifest, pk.poisson.verify(manifest.bivectors["pi"])


def _moser(pk, doc):
    manifest, structure = _structure(pk, doc)
    chart = manifest.chart
    alpha = pk.multivec.DiffForm(chart, 1, {
        (i,): pk.expr.parse_expr(t, chart) for i, t in enumerate(doc["alpha"]) if t != "0"
    })
    report = pk.flow.moser_verify(structure, alpha, doc["t_grid"], doc["samples"],
                                  manifest.flow_config)
    return {"max_deviation": report.max_deviation}


def _leaf(pk, doc):
    manifest, structure = _structure(pk, doc)
    chart = manifest.chart
    gens = [pk.expr.parse_expr(t, chart) for t in doc["generators"]]
    casimirs = [pk.expr.parse_expr(t, chart) for t in doc["casimirs"]]
    trace = pk.flow.leaf_trace(structure, gens, doc["x0"], doc["schedule"],
                               manifest.flow_config, casimirs=casimirs)
    return {"casimir_drifts": trace.casimir_drifts}


def _spray(pk, doc):
    manifest, structure = _structure(pk, doc)
    samples = pk.flow.spray_realization(structure, doc["samples"], doc["nodes"],
                                        manifest.flow_config)
    return {"deviation": pk.flow.realization_check(samples, structure)}


def _manifest(pk, doc):
    return pk.cli.run_tasks(pk.cli.load_manifest(doc))


EXECUTE = {
    "manifest": _manifest,
    "moser_verify": _moser,
    "leaf_trace": _leaf,
    "spray_realization": _spray,
}


def run_jobs(pk, jobs, tracer=None, after_job=None):
    """Execute jobs one after another, calling ``after_job(seconds)`` after
    each; returns (wall seconds, records).  Wall seconds are the sum of the
    job times, so whatever ``after_job`` does is not in them."""
    records = []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = EXECUTE[job.kind](pk, job.doc)
            else:
                with tracer.span("job"):
                    raw = EXECUTE[job.kind](pk, job.doc)
            error = None
        except Exception as err:  # a job failure is counted, not fatal
            raw, error = None, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        records.append({"job": job, "seconds": seconds, "raw": raw, "error": error})
        if after_job is not None:
            after_job(seconds)
    return sum(rec["seconds"] for rec in records), records


def check_records(records):
    """Oracle verdict per record; sets record["reason"] (None when correct)."""
    import oracles

    verdicts = {}  # a traced pass prints what the untraced pass printed
    for rec in records:
        if rec["error"] is not None:
            rec["reason"] = rec["error"]
            continue
        job, raw = rec["job"], rec["raw"]
        value = ([(r.name, r.passed, r.lines, r.data) for r in raw]
                 if job.kind == "manifest" else raw)
        key = (id(job), repr(value))
        if key not in verdicts:
            try:
                verdicts[key] = oracles.check(job, value)
            except Exception as err:  # unreadable output is a wrong answer
                verdicts[key] = (f"oracle could not read the output: "
                                 f"{type(err).__name__}: {err}")
        rec["reason"] = verdicts[key]
    return sum(rec["reason"] is not None for rec in records)


def hd_quantile(values, p):
    """Harrell-Davis estimate of the ``p``-quantile of ``values``.

    It is a weighted mean of all order statistics: the i-th smallest of n
    weighs the mass of Beta((n+1)p, (n+1)(1-p)) on ((i-1)/n, i/n], taken by
    the midpoint rule.  The weight falls on the jobs nearest the quantile,
    which ran at different moments of the run, so the estimate varies less
    from run to run than any single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64
    weights = []
    for i in range(n):
        us = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
                                    - log_norm) for u in us))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(times):
    """Job time at the highest percentile with at least 10 jobs beyond it,
    (m - 10) / m of m jobs, as a Harrell-Davis estimate.  Returns (seconds,
    percentile)."""
    m = len(times)
    if m < 11:
        raise ValueError(f"{m} jobs: the tail needs at least 11")
    return hd_quantile(times, (m - 10) / m), 100.0 * (m - 10) / m


# -- main ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "poisskit" / "cli.py").is_file():
        print("perfbench: ./src/poisskit not found; run from the root of a poisskit "
              "checkout", file=sys.stderr)
        return 2

    time_imports(src, 1)  # leaves the bytecode cache warm
    setup_samples = time_imports(src, SETUP_BEFORE)

    rounds = workloads.rounds(args.workload, args.seed, args.seconds)
    jobs = [job for rnd in rounds for job in rnd]

    sys.path.insert(0, str(src))
    from poisskit import cli, expr, flow, multivec, poisson

    pk = argparse.Namespace(cli=cli, expr=expr, flow=flow, multivec=multivec,
                            poisson=poisson)

    clock = HostClock()
    since_import = 0.0

    def after_job(seconds):
        nonlocal since_import
        clock.tick(seconds)
        since_import += seconds
        if since_import >= SETUP_EVERY_S:
            since_import = 0.0
            setup_samples.extend(time_imports(src, 1))

    wall_s, records = run_jobs(pk, jobs, after_job=after_job)
    times = [rec["seconds"] for rec in records]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "jobs": len(jobs), "rounds": len(rounds)}

    if args.trace:
        tracer = tracing.Tracer()
        traced_clock = HostClock()
        tracer.install()
        try:
            traced_wall_s, traced = run_jobs(pk, jobs, tracer, traced_clock.tick)
        finally:
            tracer.uninstall()
        records += traced
        values = tracer.metrics()
        # In probe units, so that a change in host speed between the two
        # passes is not read as tracing overhead.
        values["trace.overhead_frac"] = ((traced_wall_s / traced_clock.unit())
                                         / (wall_s / clock.unit()) - 1.0)
        units = tracing.metric_units()
        metrics = {name: _metric(values[name], units[name]) for name in units}
        os.makedirs(TRACE_DIR, exist_ok=True)
        span_file = os.path.join(TRACE_DIR, f"spans-{args.workload}-{args.seed}.json")
        tracer.dump(span_file)
        detail.update(untraced_wall_s=wall_s, traced_wall_s=traced_wall_s,
                      spans=len(tracer.start), span_file=span_file)

    failed = check_records(records)
    attempted = len(records)
    setup_samples += time_imports(src, SETUP_AFTER)
    tail_s, tail_pct = tail(times)
    p50_s = hd_quantile(times, 0.5)
    unit_s = clock.unit()
    if not args.trace:
        metrics = {
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "wall_probes": _metric(wall_s / unit_s, "probe"),
            "job_p50_probes": _metric(p50_s / unit_s, "probe"),
            "job_tail_probes": _metric(tail_s / unit_s, "probe"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    detail.update(
        setup_samples_s=setup_samples,
        wall_s=wall_s,
        job_p50_s=p50_s,
        job_tail_s=tail_s,
        tail_percentile=tail_pct,
        failed_frac=failed / attempted,
        host_clock={"unit_s": unit_s, "fastest_s": min(clock.samples),
                    "loops": len(clock.samples)},
        job_records=[{"name": r["job"].name, "seconds": r["seconds"], "reason": r["reason"]}
                     for r in records],
    )
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  "
          f"trace {args.trace}")
    for name, m in metrics.items():
        note = ""
        if name == "job_tail_probes":
            note = f"  (p{tail_pct:.1f} of {len(times)} jobs, Harrell-Davis)"
        if name == "setup_s":
            note = f"  (median of {len(setup_samples)} fresh imports)"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':40s} {failed}/{attempted}")
    for rec in records:
        if rec["reason"] is not None:
            print(f"  FAILED {rec['job'].name}: {rec['reason']}")
    print(f"  wall_s {wall_s:.4g}  job_p50_s {p50_s:.4g}  job_tail_s {tail_s:.4g}  "
          f"(seconds; probe unit {unit_s * 1e6:.1f} us, mean of {len(clock.samples)} "
          f"loops, fastest {min(clock.samples) * 1e6:.1f} us)")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
