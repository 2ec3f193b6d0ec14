"""Dirac geometry: pointwise lagrangian subspaces of V + V*, section
families of TM + T*M and their Courant tensor, backward/forward images,
gauge action, Dirac brackets on constraint level sets, and submanifold
classification.

Pointwise objects live in Q^(2n) with the vector coordinates first and the
covector coordinates last; the pairing is <(X,a),(Y,b)> = b(X) + a(Y).
A ``DiracSectionFamily`` holds n sections as rows of 2n RatFuncs in this
layout; its Courant tensor is the Cartan expansion of the Dorfman bracket.
A ``LinearLagrangian`` stores its reduced row echelon form, canonical for the
fixed column order, so equality and printing are structural.  Backward and
forward images are both one relation image {out u : into u in L}; kernel,
range, induced forms and induced bivectors are read off the RREF of L, or of
L with its covector coordinates first.

One entry point per fact: the graph of pi# or of omega_flat at a point is
``DiracSectionFamily.graph_of_bivector`` or ``graph_of_2form`` followed by
``evaluate_at``; the range of pi# with its induced form is
``kernel_and_range`` of that graph, inverted by ``reconstruct_from_range``.
That phi pushes the graph of pi_1 onto the graph of pi_2 is the Poisson-map
condition, checked by ``poisson.is_poisson_map``.

The Dirac bracket of a cosymplectic constraint system psi_1, ..., psi_k is
the bivector pi_D = pi + sum_{i<j} c^ij X_psi_i ^ X_psi_j, c the inverse of
C = ({psi_i, psi_j}): a Poisson structure with every psi_i a Casimir (Dirac,
Canad. J. Math. 2, 1950), so {f,g}_N is ``poisson.bracket`` of pi_D,
restricted to N.  Restriction to a constraint level set N is performed by
exact substitution through a polynomial parametrization when one is
supplied, and otherwise by exact evaluation at user-provided on-level sample
points (results are then labeled "sampled").  Dirac brackets and submanifold
classification need a system whose structure passed ``poisson.verify``; on
any other they raise ``require_verified``'s PoissonError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import linalg, poisson
from .expr import Chart, ChartMismatchError, ExprError, RatFunc, format_point
from .multivec import DiffForm, PolyMap, wedge
from .poisson import (
    NotCosymplecticError,
    PoissonStructure,
    bivector_matrix,
    bracket,
    hamiltonian_vf,
    matrix_at,
    require_verified,
)


class DiracError(ExprError):
    pass


# -- pointwise lagrangian subspaces ------------------------------------------


@dataclass
class LinearLagrangian:
    """Lagrangian subspace of V + V*, dim V = n, given by n spanning row
    vectors; ``basis`` holds its canonical span.  Lagrangian means rank n and
    a zero Gram matrix of the pairing, B times the transpose of B with its
    V and V* halves swapped."""

    dim: int
    basis: list

    def __post_init__(self):
        n = self.dim
        rows = [[Fraction(x) for x in row] for row in self.basis]
        if any(len(row) != 2 * n for row in rows):
            raise DiracError("basis vectors must have length 2n")
        self.basis = linalg.canonical_span(rows)
        swapped = [row[n:] + row[:n] for row in self.basis]
        if (not rows or len(rows) != n or len(self.basis) != n
                or any(any(g) for g in linalg.matmul(self.basis, linalg.transpose(swapped)))):
            raise DiracError("basis does not span a lagrangian subspace")

    def __str__(self):
        rows = ["(" + ", ".join(str(x) for x in row) + ")" for row in self.basis]
        return "span{" + "; ".join(rows) + "}"


def _block_diag(a, b):
    """The block matrix diag(a, b) of two Fraction matrices."""
    za = [Fraction(0)] * len(a[0])
    zb = [Fraction(0)] * len(b[0])
    return [list(row) + zb for row in a] + [za + list(row) for row in b]


def _relation_image(lag: LinearLagrangian, into, out, dim: int) -> LinearLagrangian:
    """{out u : into u in L}, a lagrangian subspace of dimension ``dim``.
    ``out`` may map the spanning preimage rows to dependent ones."""
    sols = linalg.preimage_span(into, lag.basis)
    return LinearLagrangian(dim, linalg.canonical_span([linalg.matvec(out, u) for u in sols]))


def backward_image(lag: LinearLagrangian, a_matrix) -> LinearLagrangian:
    """phi^! L = {(X, A^T b) : (A X, b) in L} for a linear map A: V_src -> V_tgt.

    Pointwise the backward image is always lagrangian of dimension n_src;
    smoothness across points is the business of coregularity_check.
    """
    n_src = len(a_matrix[0])
    a_t = linalg.transpose(a_matrix)
    return _relation_image(
        lag,
        _block_diag(a_matrix, linalg.identity(lag.dim)),
        _block_diag(linalg.identity(n_src), a_t),
        n_src,
    )


def forward_image(lag: LinearLagrangian, a_matrix) -> LinearLagrangian:
    """phi_! L = {(A X, b) : (X, A^T b) in L}."""
    n_tgt = len(a_matrix)
    a_t = linalg.transpose(a_matrix)
    return _relation_image(
        lag,
        _block_diag(linalg.identity(lag.dim), a_t),
        _block_diag(a_matrix, linalg.identity(n_tgt)),
        n_tgt,
    )


def gauge_at(lag: LinearLagrangian, b_matrix) -> LinearLagrangian:
    """tau_B(X, a) = (X, a + i_X B) for an antisymmetric matrix B."""
    n = lag.dim
    b_t = linalg.transpose(b_matrix)
    if b_t != [[-e for e in row] for row in b_matrix]:
        raise DiracError("gauge matrix must be antisymmetric")
    out = []
    for row in lag.basis:
        x, alpha = row[:n], row[n:]
        out.append(x + [a + s for a, s in zip(alpha, linalg.matvec(b_t, x))])
    return LinearLagrangian(n, out)


@dataclass
class KernelRangeData:
    kernel: list      # basis of ker(L) = L cap (V + 0), projected to V
    range_basis: list  # basis of R = pr_V(L)
    omega: list        # matrix of the induced form on range_basis
    annihilator: list  # basis of Ann(R) = L cap (0 + V*), projected to V*


def kernel_and_range(lag: LinearLagrangian) -> KernelRangeData:
    """The RREF rows of L with a vector pivot are (r_a, alpha_a), r_a the
    canonical basis of R; the rest are (0, Ann(R)), also canonical.  With the
    covector coordinates first, the rows (0, X) give ker(L) the same way."""
    n = lag.dim
    span = lag.basis
    heads = [row for row in span if any(row[:n])]
    rng = [row[:n] for row in heads]
    ann = [row[n:] for row in span if not any(row[:n])]
    swapped = linalg.canonical_span([row[n:] + row[:n] for row in span])
    ker = [row[n:] for row in swapped if not any(row[:n])]
    # Omega(u, v) = alpha_u(v); well-definedness: Ann(R) must kill the range
    if any(any(row) for row in linalg.matmul(ann, linalg.transpose(rng))):
        raise DiracError("induced form ill-defined (bug)")
    omega_matrix = linalg.matmul([row[n:] for row in heads], linalg.transpose(rng))
    return KernelRangeData(ker, rng, omega_matrix, ann)


def reconstruct_from_range(data: KernelRangeData, dim: int) -> LinearLagrangian:
    """Rebuild L from (R, Omega, Ann(R)): span of (r_a, alpha_a) plus 0 + Ann(R).

    Any covector alpha_a with alpha_a(r_b) = Omega_ab will do.  Row b of the
    augmented matrix [R | Omega^T] is r_b followed by the values Omega_ab, so
    one RREF of it solves for every alpha_a at once: column n + a holds
    alpha_a's pivot coordinates, its free coordinates are 0."""
    n = dim
    rng = data.range_basis
    rows = []
    if rng:
        aug = [list(r) + [row[b] for row in data.omega] for b, r in enumerate(rng)]
        m, pivots = linalg.rref(aug)
        if pivots and pivots[-1] >= n:
            raise DiracError("cannot reconstruct covector (bug)")
        for a, r in enumerate(rng):
            alpha = [Fraction(0)] * n
            for row, pc in zip(m, pivots):
                alpha[pc] = row[n + a]
            rows.append(list(r) + alpha)
    for ann in data.annihilator:
        rows.append([Fraction(0)] * n + list(ann))
    return LinearLagrangian(n, rows)


# -- section families and the Courant tensor ----------------------------------


def _unit_rows(chart: Chart) -> list:
    return [[RatFunc.const(chart, e) for e in row] for row in linalg.identity(chart.dim)]


@dataclass
class DiracSectionFamily:
    """n sections (X_a | alpha_a) of TM + T*M on a chart, as rows of 2n
    RatFuncs with the vector components first, as in ``LinearLagrangian``."""

    chart: Chart
    rows: list
    samples: list = field(default_factory=list)

    def __post_init__(self):
        n = self.chart.dim
        if len(self.rows) != n or any(len(row) != 2 * n for row in self.rows):
            raise DiracError("need exactly n sections, each a row of 2n entries")
        if not all(isinstance(e, RatFunc) and e.chart == self.chart
                   for row in self.rows for e in row):
            raise ChartMismatchError("section entries must be RatFuncs on the chart")

    def evaluate_at(self, point) -> LinearLagrangian:
        return LinearLagrangian(self.chart.dim, [[e.eval(point) for e in row] for row in self.rows])

    @staticmethod
    def graph_of_bivector(structure, samples=None) -> "DiracSectionFamily":
        """Sections (pi#(dx_i), dx_i) of a PoissonStructure or a bivector."""
        pi = poisson._pi_of(structure)
        rows = [p + e for p, e in zip(bivector_matrix(pi), _unit_rows(pi.chart))]
        return DiracSectionFamily(pi.chart, rows, samples or [])

    @staticmethod
    def graph_of_2form(omega: DiffForm, samples=None) -> "DiracSectionFamily":
        """Sections (d/dx_i, i_{d/dx_i} omega)."""
        if omega.degree != 2:
            raise DiracError("graph_of_2form needs a 2-form")
        rows = [e + w for e, w in zip(_unit_rows(omega.chart), bivector_matrix(omega))]
        return DiracSectionFamily(omega.chart, rows, samples or [])


def _pair(u, v, zero: RatFunc) -> RatFunc:
    """sum_k u_k v_k over the k where neither entry is zero."""
    terms = [s * t for s, t in zip(u, v) if not (s.is_zero or t.is_zero)]
    return sum(terms[1:], terms[0]) if terms else zero


def courant_tensor(family: DiracSectionFamily) -> dict:
    """{(a, b, c): <[[e_a, e_b]], e_c>} for a < b < c, with the Dorfman bracket
    [[(X, a), (Y, b)]] = ([X, Y], L_X b - i_Y da); the family is integrable
    iff all vanish identically.  With p_ab = alpha_a(X_b), Cartan's formula
    expands it to alpha_c[X_a, X_b] - alpha_b[X_a, X_c] + alpha_a[X_b, X_c]
    + X_a(p_bc) - X_b(p_ac) + X_c(p_ab), which takes [X_a, X_b] and the
    gradient of p_ab once for each a < b.  Checks lagrangianity at the
    family's samples first."""
    for point in family.samples:
        family.evaluate_at(point)  # raises if not lagrangian
    n = family.chart.dim
    zero = RatFunc.zero(family.chart)
    vecs, forms = [row[:n] for row in family.rows], [row[n:] for row in family.rows]
    # grads[a][k] = the gradient of X_a^k
    grads = [[[e.diff(j) for j in range(n)] for e in x] for x in vecs]
    brackets, dp = {}, {}
    for a, b in itertools.combinations(range(n), 2):
        brackets[a, b] = [_pair(vecs[a], grads[b][k], zero) - _pair(vecs[b], grads[a][k], zero)
                          for k in range(n)]
        p_ab = _pair(forms[a], vecs[b], zero)
        dp[a, b] = [p_ab.diff(j) for j in range(n)]
    return {
        (a, b, c): _pair(forms[c], brackets[a, b], zero) - _pair(forms[b], brackets[a, c], zero)
        + _pair(forms[a], brackets[b, c], zero) + _pair(vecs[a], dp[b, c], zero)
        - _pair(vecs[b], dp[a, c], zero) + _pair(vecs[c], dp[a, b], zero)
        for a, b, c in itertools.combinations(range(n), 3)
    }


# -- constraint systems and Dirac brackets ------------------------------------------


@dataclass
class ConstraintSystem:
    structure: PoissonStructure
    constraints: list          # RatFuncs psi_i
    level: list                # Fractions r_i
    samples: list = field(default_factory=list)
    parametrization: PolyMap | None = None

    def __post_init__(self):
        ch = self.structure.chart
        for psi in self.constraints:
            if psi.chart != ch:
                raise ChartMismatchError("constraints live on another chart")
        self.level = [Fraction(r) for r in self.level]
        if len(self.level) != len(self.constraints):
            raise DiracError(
                f"{len(self.constraints)} constraints but {len(self.level)} level values"
            )
        for point in self.samples:
            for psi, r in zip(self.constraints, self.level):
                if psi.eval(point) != r:
                    raise DiracError(f"sample {format_point(point)} is not on the level set")
        if self.parametrization is not None:
            if self.parametrization.target != ch:
                raise ChartMismatchError("parametrization must land in the ambient chart")
            comps = list(self.parametrization.components)
            for psi, r in zip(self.constraints, self.level):
                if not (psi.subst(comps) - RatFunc.const(self.parametrization.source, r)).is_zero:
                    raise DiracError("parametrization does not satisfy the constraints")

    def restrict(self, f: RatFunc):
        """Exact substitution through the parametrization, or values at samples."""
        if self.parametrization is not None:
            return f.subst(list(self.parametrization.components))
        if self.samples:
            return [f.eval(p) for p in self.samples]
        raise DiracError("no parametrization and no samples: cannot restrict")

    def restrict_is_zero(self, f: RatFunc) -> bool:
        r = self.restrict(f)
        if isinstance(r, RatFunc):
            return r.is_zero
        return all(v == 0 for v in r)


def constraint_bracket_matrix(cs: ConstraintSystem):
    """Ambient matrix {psi_i, psi_j} as RatFuncs: the brackets with i < j, a
    zero diagonal and the lower triangle by antisymmetry."""
    psi = cs.constraints
    m = [[RatFunc.zero(cs.structure.chart)] * len(psi) for _ in psi]
    for i, j in itertools.combinations(range(len(psi)), 2):
        m[i][j] = bracket(cs.structure, psi[i], psi[j])
        m[j][i] = -m[i][j]
    return m


def dirac_bracket(cs: ConstraintSystem) -> PoissonStructure:
    """pi_D = pi + sum_{i<j} c^ij X_psi_i ^ X_psi_j with c = ({psi_i, psi_j})^-1,
    the Dirac bracket {f,g} - {f,psi_i} c^ij {psi_j,g} as a bivector.  Dirac's
    theorem (1950) that it is Poisson, with each psi_i a Casimir, is its
    certificate.  With C = X / a cleared, c^ij = (-1)^(i+j) a Pf(X_(i^ j^)) / Pf(X)
    for i < j.  NotCosymplecticError when Pf(C) = 0, as for odd k."""
    require_verified(cs.structure)
    if not cs.samples and cs.parametrization is None:
        raise DiracError("no parametrization and no samples")
    pi_d = cs.structure.pi
    if not cs.constraints:
        return PoissonStructure(pi_d, True)
    c_upper = constraint_bracket_matrix(cs)
    x, scale = linalg._cleared_matrix(c_upper)
    pf, full = linalg.pfaffians(x), tuple(range(len(x)))
    if pf(full).is_zero:
        pretty = "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in c_upper
        ) + "]"
        raise NotCosymplecticError(
            f"constraint matrix is singular (not cosymplectic): c_upper = {pretty}"
        )
    minors, delta = linalg._primitive_pair(
        {(i, j): pf(full[:i] + full[i + 1:j] + full[j + 1:]) * scale * (-1) ** (i + j)
         for i, j in itertools.combinations(full, 2)}, pf(full))
    fields = [hamiltonian_vf(cs.structure, psi) for psi in cs.constraints]
    for (i, j), minor in minors.items():
        pi_d = pi_d + wedge(fields[i], fields[j]).scale(RatFunc(minor, delta))
    return PoissonStructure(pi_d, True)


# -- submanifold classification -----------------------------------------------------


@dataclass
class SubmanifoldFlags:
    poisson: bool
    coisotropic: bool
    cosymplectic: bool
    mode: str  # "exact" (parametrization) or "sampled"


def classify_submanifold(cs: ConstraintSystem) -> SubmanifoldFlags:
    require_verified(cs.structure)
    if cs.parametrization is None and not cs.samples:
        raise DiracError("need a parametrization or samples")
    mode = "exact" if cs.parametrization is not None else "sampled"
    # Poisson: X_psi_i |_N = 0
    is_poisson_sub = True
    for psi in cs.constraints:
        xf = hamiltonian_vf(cs.structure, psi)
        for comp in xf.components():
            if not cs.restrict_is_zero(comp):
                is_poisson_sub = False
                break
        if not is_poisson_sub:
            break
    c_upper = constraint_bracket_matrix(cs)
    coiso = all(cs.restrict_is_zero(e) for row in c_upper for e in row)
    # cosymplectic: the Pfaffian of the restricted constraint matrix is nonzero
    if not cs.constraints:
        cosym = True
    elif cs.parametrization is not None:
        comps = list(cs.parametrization.components)
        restricted, _ = linalg._cleared_matrix([[e.subst(comps) for e in row] for row in c_upper])
        cosym = not linalg.pfaffians(restricted)(tuple(range(len(restricted)))).is_zero
    else:
        cosym = all(
            linalg.det([[e.eval(p) for e in row] for row in c_upper]) != 0
            for p in cs.samples
        )
    return SubmanifoldFlags(is_poisson_sub, coiso, cosym, mode)


# -- co-regularity -------------------------------------------------------------------


@dataclass
class CoregularityReport:
    dims: list
    constant: bool


def _tn_pi_rows(cs: ConstraintSystem, point):
    """The rows (d psi_i) P at a point, P = ``matrix_at``: they span
    TN^pi = pi#(Ann(TN)) there."""
    dpsi = [[psi.diff(i).eval(point) for i in range(cs.structure.chart.dim)]
            for psi in cs.constraints]
    return linalg.matmul(dpsi, matrix_at(poisson._pi_of(cs.structure), point))


def coregularity_check(structure, data, samples=None) -> CoregularityReport:
    """Sampled constant-dimension check.

    With a ConstraintSystem over ``structure``: rank of TN^pi = pi#(Ann(TN))
    across its samples, or across ``samples``, which must lie on N.
    With a PolyMap phi into the structure's chart: dim(Im(dphi) + R) across
    the given samples of the source chart.
    """
    pi = poisson._pi_of(structure)
    if isinstance(data, ConstraintSystem):
        if pi != poisson._pi_of(data.structure):
            raise DiracError("the constraint system lies over another structure")
        cs = data if samples is None else replace(data, samples=samples)
        if len(cs.samples) < 2:
            raise DiracError("need at least 2 samples")
        dims = [linalg.rank(_tn_pi_rows(cs, point)) for point in cs.samples]
    elif isinstance(data, PolyMap):
        phi = data
        if phi.target != pi.chart:
            raise ChartMismatchError("the map must land in the structure's chart")
        if samples is None or len(samples) < 2:
            raise DiracError("need at least 2 samples")
        dims = []
        for point in samples:
            # the columns of dphi span Im(dphi), the rows of P span R
            image = linalg.transpose(phi.jacobian_at(point))
            dims.append(linalg.rank(image + matrix_at(pi, phi(point))))
    else:
        raise DiracError("second argument must be a ConstraintSystem or PolyMap")
    return CoregularityReport(dims, len(set(dims)) <= 1)


# -- dual pairs ----------------------------------------------------------------------


def dual_pair_check(omega: DiffForm, phi1: PolyMap, phi2: PolyMap,
                    structure1, structure2, samples) -> bool:
    """dim S = dim M1 + dim M2 and phi1^! L_pi1 = tau_omega(phi2^! L_pi2) at
    every sample."""
    s_chart = omega.chart
    pi1, pi2 = poisson._pi_of(structure1), poisson._pi_of(structure2)
    if phi1.source != s_chart or phi2.source != s_chart:
        raise ChartMismatchError("legs must start on the 2-form's chart")
    if pi1.chart != phi1.target or pi2.chart != phi2.target:
        raise ChartMismatchError("each structure must live on its leg's target chart")
    if s_chart.dim != phi1.target.dim + phi2.target.dim:
        return False
    graph1 = DiracSectionFamily.graph_of_bivector(pi1)
    graph2 = DiracSectionFamily.graph_of_bivector(pi2)
    for point in samples:
        w = matrix_at(omega, point)
        if linalg.det(w) == 0:
            raise DiracError(f"2-form degenerate at sample {format_point(point)}")
        j1 = phi1.jacobian_at(point)
        j2 = phi2.jacobian_at(point)
        if linalg.rank(j1) != phi1.target.dim or linalg.rank(j2) != phi2.target.dim:
            raise DiracError(f"a leg is not a submersion at {format_point(point)}")
        back1 = backward_image(graph1.evaluate_at(phi1(point)), j1)
        back2 = backward_image(graph2.evaluate_at(phi2(point)), j2)
        if back1 != gauge_at(back2, w):
            return False
    return True


# -- transverse induced structure ------------------------------------------------------


def transversal_induced_poisson_at(cs: ConstraintSystem, parameter_point):
    """Matrix of the Poisson structure induced by ``cs.structure`` at a point
    of the cosymplectic level set, in parametrization coordinates.

    Computed as the backward image of the graph of pi under the inclusion;
    the cosymplectic condition TN + TN^pi = TM with trivial intersection is
    verified at the point first.
    """
    if cs.parametrization is None:
        raise DiracError("needs a parametrization of the level set")
    phi = cs.parametrization
    ambient_point = phi(parameter_point)
    n = cs.structure.chart.dim
    jac = phi.jacobian_at(parameter_point)
    tn = linalg.canonical_span(linalg.transpose(jac))
    tnpi = linalg.canonical_span(_tn_pi_rows(cs, ambient_point))
    if not len(tn) + len(tnpi) == n == linalg.rank(tn + tnpi):
        raise NotCosymplecticError(
            f"TN (+) TN^pi != TM at {format_point(ambient_point)}: not cosymplectic there"
        )
    graph = DiracSectionFamily.graph_of_bivector(cs.structure).evaluate_at(ambient_point)
    lag = backward_image(graph, jac)
    m = phi.source.dim
    # with the covector coordinates first, a bivector graph has RREF (I | P)
    span = linalg.canonical_span([row[m:] + row[:m] for row in lag.basis])
    if [row[:m] for row in span] != linalg.identity(m):
        raise NotCosymplecticError("induced subspace is not a bivector graph")
    matrix = [row[m:] for row in span]
    if linalg.transpose(matrix) != [[-e for e in row] for row in matrix]:
        raise DiracError("induced matrix not antisymmetric (bug)")
    return matrix
