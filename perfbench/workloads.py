"""Seeded job lists for the three benchmark workloads.

A job is one manifest run in-process through ``poisskit.cli`` or, where the
CLI has no task, one ``poisskit.flow`` library call.  Every job carries the
oracle data that ``oracles.py`` checks its result against; no expected value
here comes from program output.

The seed changes coefficients, orderings and sample points but keeps the
shape of every job (degrees, supports, step counts), so the work per job, and
with it the wall time of a run, does not depend much on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Work per round, in seconds on a 2-core x86 host with Python 3.11.  A job
# list for S seconds of work holds the workload's fixed jobs, if it has any
# (about FIXED_S seconds), and then max(1, round((S - FIXED_S) / ROUND_S))
# rounds, each with fresh seeded inputs; so the list is fixed by
# (workload, seed, S).
ROUND_S = {"cohomology": 0.45, "rational": 5.0, "flow": 2.2}
FIXED_S = {"cohomology": 10.0}

FIXTURE_PI = {
    "so3": (["x", "y", "z"], {"0,1": "z", "1,2": "x", "0,2": "-y"}),
    "sl2r": (["x", "y", "z"], {"0,1": "-z", "1,2": "x", "0,2": "-y"}),
    "book": (["x", "y", "z"], {"0,2": "x", "1,2": "y"}),
    "s3_standard": (
        ["x", "y", "z", "w"],
        {"0,1": "z^2+w^2", "0,2": "-y*z", "0,3": "-y*w", "1,2": "x*z", "1,3": "x*w"},
    ),
    "r4_canonical": (["q1", "p1", "q2", "p2"], {"0,1": "-1", "2,3": "-1"}),
}
CASIMIR = {"so3": "x^2+y^2+z^2", "sl2r": "x^2+y^2-z^2"}

# Lie algebras of the cohomology ladder: (dim, structure constants as
# {(a, b): {c: coeff}} for a < b, degrees of the primitive generators of
# H(g), degrees of the generators of S(g)^g).
def _gl_constants(n):
    out = {}
    for a in range(n * n):
        for b in range(a + 1, n * n):
            i, j = divmod(a, n)
            k, l = divmod(b, n)
            terms = {}
            if j == k:
                terms[i * n + l] = terms.get(i * n + l, 0) + 1
            if l == i:
                terms[k * n + j] = terms.get(k * n + j, 0) - 1
            terms = {c: v for c, v in terms.items() if v}
            if terms:
                out[(a, b)] = terms
    return out


LIE = {
    "so3": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, [3], [2]),
    "sl2r": (3, {(0, 1): {2: -1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, [3], [2]),
    "gl2": (4, _gl_constants(2), [1, 3], [1, 2]),
    "gl3": (9, _gl_constants(3), [1, 3, 5], [1, 2, 3]),
}

# (algebra, k, d_max) of the cohomology ladder, run once per run.  Left out
# because one job would take most of a run here: gl3 H^1 at d<=2 (18.3 s),
# gl3 H^3 at d<=1 (228 s) and gl3 H^2 at d<=2 (299 s).
LADDER = (
    [("so3", k, 3) for k in range(4)] + [("sl2r", k, 3) for k in range(4)]
    + [("gl2", k, 3) for k in range(5)]
    + [("gl3", k, 1) for k in range(3)]
)
# A cohomology round: so3 and sl2r H^1..H^3 in a fresh relabelling.  The
# rounds fill the run with groups of like jobs, so that the median job falls
# in the middle of the H^1 group and the tail job (the 11th largest) among
# the H^2 jobs, just below the six heavy gl2 and gl3 jobs of the ladder.
SMALL_LADDER = [(algebra, k, 3) for algebra in ("so3", "sl2r") for k in (1, 2, 3)]


@dataclass
class Job:
    """One timed unit of work and the data its oracle needs."""

    name: str
    kind: str                      # "manifest" or a flow library call
    doc: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)


# -- polynomial text helpers (the benchmark's own, independent of poisskit) --


def _mono(names, exps):
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def poly_text(names, terms):
    """Format {exponent tuple: Fraction} in the manifest expression grammar."""
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        if c == 0:
            continue
        mono = _mono(names, exps)
        mag = abs(c)
        body = (f"{mag}*{mono}" if mag != 1 else mono) if mono else str(mag)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _pdiff(terms, i):
    out = {}
    for exps, c in terms.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + c * exps[i]
    return {e: c for e, c in out.items() if c}


def _rand_mono(rng, dim, degree):
    e = [0] * dim
    for _ in range(degree):
        e[rng.randrange(dim)] += 1
    return tuple(e)


def _rand_poly(shape, rng, dim, degrees, const=False):
    """One term per entry of ``degrees``: distinct monomials drawn from
    ``shape``, coefficients in +-{1, 2, 3} drawn from ``rng``; plus a constant
    term in {1, 2, 3} when ``const``."""
    terms = {}
    for deg in degrees:
        while True:
            e = _rand_mono(shape, dim, deg)
            if e not in terms:
                break
        terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    if const:
        terms[(0,) * dim] = Fraction(rng.choice([1, 2, 3]))
    return terms


def _rand_rational(rng, lo=-1, hi=1, den=4):
    while True:
        v = Fraction(rng.randint(lo * den, hi * den), den)
        if v:
            return v


# -- cohomology ----------------------------------------------------------------


def _relabelled_lie_poisson(rng, algebra):
    """Lie-Poisson bivector of ``algebra`` in coordinates y_A = s_A x_sigma(A):
    a seeded basis permutation and sign flips s_A = +-1.  Keeps the sparsity,
    the degree, the cohomology and the size of every Fraction; changes the
    signs and the order of the coefficients.  (A +-2 rescaling changed the
    Fraction sizes, and with them the cost of a job, from seed to seed.)"""
    dim, consts, _, _ = LIE[algebra]
    sigma = list(range(dim))
    rng.shuffle(sigma)
    inv = {s: a for a, s in enumerate(sigma)}
    scale = [Fraction(rng.choice([-1, 1])) for _ in range(dim)]
    full = {}
    for (a, b), terms in consts.items():
        full[(a, b)] = terms
        full[(b, a)] = {c: -v for c, v in terms.items()}
    names = [f"u{a}" for a in range(dim)]
    table = {}
    for A in range(dim):
        for B in range(A + 1, dim):
            terms = full.get((sigma[A], sigma[B]))
            if not terms:
                continue
            poly = {}
            for c, v in terms.items():
                C = inv[c]
                e = [0] * dim
                e[C] = 1
                poly[tuple(e)] = scale[A] * scale[B] * v / scale[C]
            table[f"{A},{B}"] = poly_text(names, poly)
    return names, table


def _poincare(degrees, exterior):
    """Coefficients of prod(1 + t^m) (exterior) or prod 1/(1 - t^m)."""
    top = sum(degrees) if exterior else 64
    coeffs = [1] + [0] * top
    for m in degrees:
        if exterior:
            coeffs = [coeffs[i] + (coeffs[i - m] if i >= m else 0) for i in range(top + 1)]
        else:
            for i in range(m, top + 1):
                coeffs[i] += coeffs[i - m]
    return coeffs


def expected_cohomology_dim(algebra, k, d_max):
    """sum_{d<=d_max} dim H^k(g; S^d g) = dim H^k(g) * sum_d dim (S^d g)^g,
    valid for reductive g (Whitehead; Hochschild-Serre)."""
    _, _, ext, inv = LIE[algebra]
    hk = _poincare(ext, True)
    hk = hk[k] if k < len(hk) else 0
    return hk * sum(_poincare(inv, False)[: d_max + 1])


def _cohomology_jobs(rng, ladder):
    jobs = []
    for algebra, k, d_max in ladder:
        names, table = _relabelled_lie_poisson(rng, algebra)
        expect = expected_cohomology_dim(algebra, k, d_max)
        doc = {
            "chart": names,
            "bivectors": {"pi": table},
            "tasks": [{"task": "cohomology", "bivector": "pi", "k": k,
                       "d_max": d_max, "expect_dim": expect}],
        }
        jobs.append(Job(f"{algebra}.H{k}.d{d_max}", "manifest", doc,
                        {"check": "cohomology", "dim": expect}))
    return jobs


def cohomology_ladder(rng):
    return _cohomology_jobs(rng, LADDER)


def cohomology_round(rng, phase=0.5):
    return _cohomology_jobs(rng, SMALL_LADDER)


# -- rational --------------------------------------------------------------------


def _exact_two_form(names, alpha):
    """Coefficient table of B = d(alpha) for a polynomial 1-form alpha."""
    table = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            c = dict(_pdiff(alpha[j], i))
            for e, v in _pdiff(alpha[i], j).items():
                c[e] = c.get(e, 0) - v
            c = {e: v for e, v in c.items() if v}
            if c:
                table[f"{i},{j}"] = poly_text(names, c)
    return table


# Degrees of the monomials of alpha's components per gauge fixture, shuffled
# over the components listed in GAUGE_COMPONENTS (default: all); None leaves
# a component zero.  On s3_standard, whose pi is quadratic, alpha is one
# monomial times dz or dw: two-term alphas, and y*z dx or y*w dx, make one
# gauge job run for minutes (x*z dy and x*w dy take about 1 s).
GAUGE_SHAPES = {
    "so3": [[2], [2], None],
    "sl2r": [[2], [2], None],
    "book": [[2, 2], [2], [2]],
    "s3_standard": [None, None, [2], None],
}
GAUGE_COMPONENTS = {"s3_standard": [2, 3]}


def _gauge_job(shape_rng, rng, fixture):
    names, pi = FIXTURE_PI[fixture]
    dim = len(names)
    free = GAUGE_COMPONENTS.get(fixture, list(range(dim)))
    while True:
        shape = list(GAUGE_SHAPES[fixture])
        moved = [shape[i] for i in free]
        shape_rng.shuffle(moved)
        for i, degs in zip(free, moved):
            shape[i] = degs
        alpha = [_rand_poly(shape_rng, rng, dim, degs) if degs else {} for degs in shape]
        table = _exact_two_form(names, alpha)
        if table:
            break
    doc = {
        "chart": names,
        "bivectors": {"pi": pi},
        "forms": {"B": table},
        "tasks": [{"task": "gauge", "bivector": "pi", "form": "B"}],
    }
    return Job(f"gauge.{fixture}", "manifest", doc, {"check": "gauge"})


def _bracket_job(shape_rng, rng, fixture):
    names, pi = FIXTURE_PI[fixture]
    dim = len(names)
    # Shapes with a light tail: 200 seeded draws all ran in under 0.25 s.
    # A three-term numerator in f, or linear denominators in both, drew jobs
    # of 5 s and more, which made a run's wall time depend on the seed.
    f = (f"({poly_text(names, _rand_poly(shape_rng, rng, dim, [2, 1]))})"
         f"/({poly_text(names, _rand_poly(shape_rng, rng, dim, [2], const=True))})")
    g = (f"({poly_text(names, _rand_poly(shape_rng, rng, dim, [2]))})"
         f"/({poly_text(names, _rand_poly(shape_rng, rng, dim, [1], const=True))})")
    doc = {
        "chart": names,
        "bivectors": {"pi": pi},
        "expressions": {"f": f, "g": g},
        "tasks": [
            {"task": "bracket", "bivector": "pi", "f": "f", "g": "g"},
            {"task": "hamiltonian_vf", "bivector": "pi", "f": "f"},
        ],
    }
    return Job(f"bracket.{fixture}", "manifest", doc, {"check": "bracket"})


def _dirac_job(shape_rng, rng):
    """Second-class constraints psi1 = q2 - a q1^2, psi2 = p2 - b p1^2 on
    r4_canonical; {psi1, psi2} = -1 - 4ab q1 p1 is invertible generically."""
    names, pi = FIXTURE_PI["r4_canonical"]
    a = rng.choice([-2, -1, 1, 2])
    b = rng.choice([-2, -1, 1, 2])
    level = [rng.randint(-2, 2), rng.randint(-2, 2)]
    samples = []
    while len(samples) < 2:
        q1, p1 = _rand_rational(rng), _rand_rational(rng)
        if -1 - 4 * a * b * q1 * p1 != 0:
            samples.append([q1, p1, level[0] + a * q1 * q1, level[1] + b * p1 * p1])
    psi = [f"q2 - {a}*q1^2".replace("- -", "+ "), f"p2 - {b}*p1^2".replace("- -", "+ ")]
    f = poly_text(names, _rand_poly(shape_rng, rng, 4, [2, 1]))
    g = poly_text(names, _rand_poly(shape_rng, rng, 4, [2, 1]))
    doc = {
        "chart": names,
        "bivectors": {"pi": pi},
        "constraints": {"n": {
            "bivector": "pi", "psi": psi, "level": [str(v) for v in level],
            "samples": [[str(v) for v in s] for s in samples],
        }},
        "tasks": [
            {"task": "classify", "constraints": "n"},
            {"task": "dirac_bracket", "constraints": "n", "f": f, "g": g},
        ],
    }
    return Job("dirac.r4_canonical", "manifest", doc, {"check": "dirac"})


def _samples(rng, count, dim, lo=-1.0, hi=1.0):
    return [[round(rng.uniform(lo, hi), 3) for _ in range(dim)] for _ in range(count)]


def _moser_job(rng, fixture, alpha, tag):
    names, pi = FIXTURE_PI[fixture]
    doc = {
        "chart": names,
        "bivectors": {"pi": pi},
        "alpha": alpha,
        "t_grid": [0.1, 0.2],
        "samples": _samples(rng, 2, len(names), -0.8, 0.8),
        # RK4 error falls as dt^4; at dt = 0.01 some seeded alphas reach
        # 1.2e-6, just above tol, so the step is halved.
        "flow": {"dt": 0.005, "t_max": 1.0, "tol": 1e-6},
    }
    return Job(f"moser.{tag}.{fixture}", "moser_verify", doc, {"check": "moser"})


# Monomial supports come from this fixed stream, so every seed runs the same
# supports in the same job slots and only coefficients, signs, constants and
# sample points change: the cost of a slot, and of a run, then hardly depends
# on the seed.
def _supports(workload):
    return random.Random(f"{workload}/supports")


def rational_round(rng, phase=0.5):
    shape = _supports("rational")
    jobs = []
    for fixture in ("so3", "sl2r", "book", "s3_standard"):
        jobs += [_gauge_job(shape, rng, fixture) for _ in range(6)]
    for fixture in ("so3", "sl2r"):
        jobs += [_bracket_job(shape, rng, fixture) for _ in range(4)]
    jobs += [_dirac_job(shape, rng) for _ in range(4)]
    # One Moser check per round: it is among the heaviest jobs, and a run's
    # few copies stay above the tail job (the 11th largest), which then falls
    # among gauge jobs of many different sizes.
    jobs.append(_moser_job(rng, "so3", _inhomogeneous_alpha(rng), "inhomogeneous"))
    rng.shuffle(jobs)
    return jobs


def _inhomogeneous_alpha(rng):
    """alpha = (a y, b xz, 0): d(alpha) = (bz - a) dx^dy - bx dy^dz has a
    constant and a linear part, and its exact gauge family spends its time in
    RatFunc arithmetic and RatFunc.diff.  The seed draws a and b; every draw
    takes about 0.35 s.  (alpha = (yz, x, 0) takes 11.5 s, most of a run.)"""
    a, b = (rng.choice([-2, -1, 1, 2]) for _ in range(2))
    return [f"{a}*y", f"{b}*x*z", "0"]


# -- flow -------------------------------------------------------------------------


def _pd_quadratic(rng, names):
    """x^T (L L^T + I) x with L lower triangular, small integer entries."""
    n = len(names)
    low = [[rng.randint(-1, 1) if j <= i else 0 for j in range(n)] for i in range(n)]
    a = [[sum(low[i][k] * low[j][k] for k in range(n)) + (i == j) for j in range(n)]
         for i in range(n)]
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = Fraction(a[i][j] * (1 if i == j else 2))
    return poly_text(names, terms)


def _flow_job(rng, fixture):
    names, pi = FIXTURE_PI[fixture]
    doc = {
        "chart": names,
        "bivectors": {"pi": pi},
        "expressions": {"h": _pd_quadratic(rng, names), "casimir": CASIMIR[fixture]},
        "flow": {"dt": 1e-3, "t_max": 20.0, "tol": 1e-6},
        "tasks": [{"task": "flow", "bivector": "pi", "h": "h",
                   "x0": [str(_rand_rational(rng, den=8)) for _ in names],
                   "casimirs": ["casimir"]}],
    }
    return Job(f"flow.{fixture}", "manifest", doc, {"check": "flow"})


def _leaf_job(rng, duration=6.0):
    """Six flow segments of duration / 6 each, seeded generators and signs."""
    names, pi = FIXTURE_PI["so3"]
    step = round(duration / 6, 3)
    schedule = [[rng.randrange(3), rng.choice([-step, step])] for _ in range(6)]
    doc = {
        "chart": names,
        "bivectors": {"pi": pi},
        "generators": list(names),
        "x0": [round(rng.uniform(-1, 1), 3) for _ in names],
        "schedule": schedule,
        "casimirs": [CASIMIR["so3"]],
        "flow": {"dt": 1e-3, "t_max": 1.0, "tol": 1e-6},
    }
    return Job("leaf_trace.so3", "leaf_trace", doc, {"check": "leaf"})


def _linear_alpha(shape_rng, rng, names):
    """A linear 1-form whose d(alpha) is a nonzero constant 2-form."""
    while True:
        alpha = [_rand_poly(shape_rng, rng, len(names), [1]) for _ in names]
        if _exact_two_form(names, alpha):
            return [poly_text(names, a) for a in alpha]


# Realization deviation of the trapezoid rule falls as 1/nodes^2 (ROADMAP:
# 1.8e-4, 4.5e-5, 1.1e-5 at 11, 21, 41 nodes); the bound leaves a margin of
# about 10x over that at the sample sizes drawn here.
SPRAY_NODES = 21
SPRAY_BOUND = 0.2 / SPRAY_NODES ** 2


def _spray_job(rng, fixture):
    names, pi = FIXTURE_PI[fixture]
    doc = {
        "chart": names,
        "bivectors": {"pi": pi},
        "samples": _samples(rng, 2, 2 * len(names), -0.5, 0.5),
        "nodes": SPRAY_NODES,
        "flow": {"dt": 0.01, "t_max": 1.0, "tol": 1e-6},
    }
    return Job(f"spray.{fixture}", "spray_realization", doc,
               {"check": "spray", "bound": SPRAY_BOUND})


def flow_round(rng, phase=0.5):
    # Two short jobs, two leaf traces and two long flows per round put the
    # median job among the leaf traces and the tail job in the middle of the
    # flows.  The leaf traces last 2 + 8p time units for p = phase and
    # p = phase + 1/2 (mod 1), so a run's leaf traces are evenly spaced from 2
    # to 10 units.  Their times then cover a range wider than the host's
    # swings in speed, and the median job does not jump between a fast and a
    # slow copy of one job.  The Moser check is on so3 only: on sl2r the gauge
    # family of a constant d(alpha) can turn singular within the time grid,
    # and the check then fails by design.
    alpha = _linear_alpha(_supports("flow"), rng, FIXTURE_PI["so3"][0])
    jobs = [_flow_job(rng, "so3"), _flow_job(rng, "sl2r"),
            _leaf_job(rng, 2 + 8 * phase), _leaf_job(rng, 2 + 8 * ((phase + 0.5) % 1)),
            _spray_job(rng, rng.choice(["so3", "sl2r"])),
            _moser_job(rng, "so3", alpha, "homogeneous")]
    rng.shuffle(jobs)
    return jobs


ROUNDS = {"cohomology": cohomology_round, "rational": rational_round, "flow": flow_round}
FIXED = {"cohomology": cohomology_ladder}


def rounds(workload, seed, seconds):
    """A fixed job list of about ``seconds`` of work, as a list of rounds: the
    workload's fixed jobs, if any, then its repeated rounds.  Each round gets
    its place in the run as a phase in (0, 1); flow spreads the length of its
    leaf traces over the run with it."""
    rng = random.Random(f"{workload}/{seed}")
    fixed = [FIXED[workload](rng)] if workload in FIXED else []
    count = max(1, round((seconds - FIXED_S.get(workload, 0.0)) / ROUND_S[workload]))
    return fixed + [ROUNDS[workload](rng, (i + 0.5) / count) for i in range(count)]
