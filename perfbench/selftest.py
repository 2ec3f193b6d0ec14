"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py      (from the root of a poisskit checkout)

Runs one job of every oracle kind, checks that each passes, then plants a
wrong answer in each (an ``expect_dim`` off by one in the manifest, an
oracle dimension off by one, or a tampered output value) and checks that
every planted answer is counted as failed by the same code that computes
``failed`` and ``failed_frac`` in ``run.py``.  Exits 1 if any is missed.
"""

from __future__ import annotations

import argparse
import copy
import random
import sys
from pathlib import Path

import run
import workloads as W


def _tamper_line(task, extra):
    """Add a term to the value printed on the task's first line."""
    def tamper(raw):
        r = next(r for r in raw if r.name == task)
        r.lines[0] = r.lines[0] + extra
    return tamper


def _tamper_data(task, key, value):
    def tamper(raw):
        next(r for r in raw if r.name == task).data[key] = value
    return tamper


def _tamper_pi_b(raw):
    next(r for r in raw if r.name == "gauge").data["pi_B"] += " + 1 d/dx^d/dy"


def _tamper_dict(key, value):
    def tamper(raw):
        raw[key] = value
    return tamper


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    from poisskit import cli, expr, flow, multivec, poisson

    pk = argparse.Namespace(cli=cli, expr=expr, flow=flow, multivec=multivec,
                            poisson=poisson)
    rng = random.Random("selftest")
    coh = W.cohomology_round(rng)[2]
    planted_manifest = copy.deepcopy(coh)
    planted_manifest.doc["tasks"][0]["expect_dim"] += 1
    planted_oracle = copy.deepcopy(coh)
    planted_oracle.oracle["dim"] += 1
    gauge = W._gauge_job(rng, rng, "so3")
    bracket = W._bracket_job(rng, rng, "so3")
    dirac = W._dirac_job(rng, rng)
    flow_job = W._flow_job(rng, "so3")
    leaf = W._leaf_job(rng)
    moser = W._moser_job(rng, "so3", ["y", "2*x", "0"], "homogeneous")
    spray = W._spray_job(rng, "so3")

    clean = [coh, gauge, bracket, dirac, flow_job, leaf, moser, spray]
    planted = [
        (planted_manifest, None),
        (planted_oracle, None),
        (gauge, _tamper_pi_b),
        (bracket, _tamper_line("bracket", " + 1")),
        (bracket, _tamper_line("hamiltonian_vf", " + 1 d/dx")),
        (dirac, _tamper_data("dirac_bracket", "value", "['0', '0']")),
        (dirac, _tamper_data("classify", "cosymplectic", False)),
        (flow_job, _tamper_data("flow", "h_drift", 1.0)),
        (leaf, _tamper_dict("casimir_drifts", [1.0])),
        (moser, _tamper_dict("max_deviation", 1.0)),
        (spray, _tamper_dict("deviation", 1.0)),
    ]

    _, records = run.run_jobs(pk, clean)
    failed = run.check_records(records)
    ok = True
    for rec in records:
        if rec["reason"] is not None:
            ok = False
            print(f"clean job {rec['job'].name} failed: {rec['reason']}")

    _, records = run.run_jobs(pk, [job for job, _ in planted])
    for rec, (_, tamper) in zip(records, planted):
        if tamper is not None and rec["raw"] is not None:
            tamper(rec["raw"])
    failed = run.check_records(records)
    for rec in records:
        caught = rec["reason"] is not None
        ok &= caught
        print(f"planted {rec['job'].name:28s} {'caught: ' + rec['reason'] if caught else 'MISSED'}")
    print(f"failed_frac of planted answers: {failed}/{len(records)}")
    if not ok or failed != len(records):
        print("selftest FAILED")
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
