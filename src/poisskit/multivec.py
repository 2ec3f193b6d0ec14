"""Alternating tensor calculus: one core for multivector fields and forms on
a chart, and for the exterior algebra of a Lie algebra.

The core (``_Alternating``) stores a degree-k object sparsely: a map from
strictly increasing index tuples (i1 < ... < ik) to nonzero coefficients.
Degree 0 is a single coefficient keyed by the empty tuple.  ``MultiVec`` and
``DiffForm`` have RatFunc coefficients on a chart; ``liealg.AlgMultiVec`` has
Fraction coefficients on a Lie algebra's basis and overrides only the
coercion and zero test of its coefficients (and its printed basis symbol).

Sign conventions (fixed once, all tests written against them):

* {f,g} = pi(df,dg),  X_f = pi#(df)  with  beta(pi#(alpha)) = pi(alpha,beta);
* the Schouten bracket is computed from its local superalgebra expression,
  treating a k-vector as a function of the chart variables x_i and odd
  generators xi_i = d/dx_i, with the xi-derivative taken from the right:

      [X,Y] = sum_i dX/dxi_i * dY/dx_i - (-1)^((k-1)(l-1)) dY/dxi_i * dX/dx_i

  This choice satisfies graded antisymmetry, the Leibniz rule, [Z,-] = L_Z
  for vector fields, and gives [pi, f] = -X_f.
* i_X(a ^ b) = (i_X a) ^ b + (-1)^deg(a) a ^ (i_X b).

A wedge whose degree exceeds the dimension of the space is the canonical zero
object rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import Chart, ChartMismatchError, ExprError, RatFunc

Index = tuple[int, ...]


def _merge_indices(a: Index, b: Index):
    """Concatenate and sort strictly increasing tuples; sign of the shuffle.

    Returns (sign, sorted tuple) or None when an index repeats.
    """
    merged = list(a)
    sign = 1
    for i in b:
        pos = len(merged)
        for j, m in enumerate(merged):
            if i == m:
                return None
            if i < m:
                pos = j
                break
        sign *= -1 if (len(merged) - pos) % 2 else 1
        merged.insert(pos, i)
    return sign, tuple(merged)


def _accumulate(out: dict, key, term) -> None:
    """out[key] += term, storing the term itself when the key is new."""
    old = out.get(key)
    out[key] = term if old is None else old + term


class _Alternating:
    """Sparse alternating object of one degree over a space of dimension
    ``chart.dim``: a Chart here, a LieAlgebra for ``liealg.AlgMultiVec``.

    Coefficients are RatFuncs on the chart unless a subclass overrides
    ``_coerce`` and ``_is_zero``.
    """

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart, degree: int, coeffs: dict):
        if degree < 0:
            raise ExprError("negative degree")
        self.chart = chart
        self.degree = degree
        clean = {}
        for idx, c in coeffs.items():
            if len(idx) != degree or any(
                idx[i] >= idx[i + 1] for i in range(len(idx) - 1)
            ):
                raise ExprError(f"index tuple {idx} not strictly increasing of length {degree}")
            if any(i < 0 or i >= chart.dim for i in idx):
                raise ExprError(f"index tuple {idx} out of range for dimension {chart.dim}")
            c = self._coerce(c)
            if not self._is_zero(c):
                clean[idx] = c
        self.coeffs = clean

    # -- coefficient ring --------------------------------------------------

    def _coerce(self, value) -> RatFunc:
        return value if isinstance(value, RatFunc) else RatFunc.const(self.chart, value)

    @staticmethod
    def _is_zero(c) -> bool:
        return c.is_zero

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, chart, degree: int):
        return cls(chart, degree, {})

    @classmethod
    def from_scalar(cls, f: RatFunc):
        return cls(f.chart, 0, {(): f})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idx: Index):
        c = self.coeffs.get(tuple(idx))
        return self._coerce(0) if c is None else c

    def scalar(self):
        if self.degree != 0:
            raise ExprError("not a degree-0 object")
        return self.coeff(())

    # -- linear structure ------------------------------------------------

    def _check_compat(self, other, same_degree=True):
        if type(self) is not type(other):
            raise ChartMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.chart != other.chart:
            raise ChartMismatchError(f"chart mismatch: {self.chart} vs {other.chart}")
        if same_degree and self.degree != other.degree:
            raise ExprError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check_compat(other, same_degree=False)
        if self.degree != other.degree:
            # the zero object is canonical at every degree
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise ExprError(f"degree mismatch: {self.degree} vs {other.degree}")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            _accumulate(out, idx, c)
        return type(self)(self.chart, self.degree, out)

    def __neg__(self):
        return type(self)(
            self.chart, self.degree, {i: -c for i, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "_Alternating":
        f = self._coerce(f)
        return type(self)(
            self.chart, self.degree, {i: f * c for i, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if type(self) is not type(other) or self.chart != other.chart:
            return False
        if self.degree != other.degree:
            return self.is_zero and other.is_zero
        # zero coefficients are never stored, so equal objects share keys
        return self.coeffs.keys() == other.coeffs.keys() and all(
            c == other.coeffs[k] for k, c in self.coeffs.items()
        )

    __hash__ = None

    # -- rendering ---------------------------------------------------------

    _symbol_fmt = "e_{}"

    def _term(self, c, idx: Index) -> str:
        """One printed term: the coefficient, then the wedge of basis symbols."""
        text = str(c)
        if " " in text or text.startswith("-") or "/" in text:
            text = f"({text})"
        basis = "^".join(self._symbol_fmt.format(self.chart.var_names[i]) for i in idx)
        return f"{text} {basis}"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.degree == 0:
            return str(self.scalar())
        return " + ".join(self._term(self.coeffs[idx], idx) for idx in sorted(self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class MultiVec(_Alternating):
    """Alternating k-vector field on a chart."""

    _symbol_fmt = "d/d{}"

    @staticmethod
    def basis_vector(chart: Chart, i: int) -> "MultiVec":
        return MultiVec(chart, 1, {(i,): RatFunc.const(chart, 1)})

    def components(self) -> list[RatFunc]:
        """Degree-1 only: coefficient list in chart order."""
        if self.degree != 1:
            raise ExprError("components() needs a vector field")
        return [self.coeff((i,)) for i in range(self.chart.dim)]

    def apply_to(self, f: RatFunc) -> RatFunc:
        """Vector field acting on a function as a derivation."""
        if self.degree != 1:
            raise ExprError("apply_to() needs a vector field")
        out = RatFunc.zero(self.chart)
        for (i,), c in self.coeffs.items():
            out = out + c * f.diff(i)
        return out


class DiffForm(_Alternating):
    """Differential k-form on a chart."""

    _symbol_fmt = "d{}"

    @staticmethod
    def basis_form(chart: Chart, i: int) -> "DiffForm":
        return DiffForm(chart, 1, {(i,): RatFunc.const(chart, 1)})

    @staticmethod
    def d_of(f: RatFunc) -> "DiffForm":
        return exterior_derivative(DiffForm.from_scalar(f))

    def apply_vector(self, vec: MultiVec) -> RatFunc:
        """Pair a 1-form with a vector field."""
        if self.degree != 1 or vec.degree != 1:
            raise ExprError("pairing needs degree-1 arguments")
        out = RatFunc.zero(self.chart)
        for (i,), c in self.coeffs.items():
            out = out + c * vec.coeff((i,))
        return out


# -- wedge --------------------------------------------------------------------


def wedge(a, b):
    """Graded-commutative product; zero object when the degree exceeds dim."""
    a._check_compat(b, same_degree=False)
    cls = type(a)
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return cls.zero(a.chart, degree)
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            term = ca * cb if sign > 0 else -(ca * cb)
            _accumulate(out, idx, term)
    return cls(a.chart, degree, out)


# -- interior product and exterior derivative --------------------------------


def contract(form: DiffForm, vec: MultiVec) -> DiffForm:
    """Interior product i_vec(form) for a degree-1 multivector."""
    if not isinstance(form, DiffForm) or not isinstance(vec, MultiVec):
        raise ExprError("contract expects (DiffForm, MultiVec)")
    if vec.degree != 1:
        raise ExprError("contraction vector must have degree 1")
    if form.degree == 0:
        raise ExprError("cannot contract a degree-0 form")
    if form.chart != vec.chart:
        raise ChartMismatchError("chart mismatch in contract")
    out: dict[Index, RatFunc] = {}
    for idx, c in form.coeffs.items():
        for pos, i in enumerate(idx):
            v = vec.coeff((i,))
            if v.is_zero:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = c * v
            if pos % 2:
                term = -term
            _accumulate(out, rest, term)
    return DiffForm(form.chart, form.degree - 1, out)


def exterior_derivative(form: DiffForm) -> DiffForm:
    if not isinstance(form, DiffForm):
        raise ExprError("exterior_derivative expects a DiffForm")
    chart = form.chart
    degree = form.degree + 1
    if degree > chart.dim:
        return DiffForm.zero(chart, degree)
    out: dict[Index, RatFunc] = {}
    for idx, c in form.coeffs.items():
        for i in range(chart.dim):
            dc = c.diff(i)
            if dc.is_zero:
                continue
            merged = _merge_indices((i,), idx)
            if merged is None:
                continue
            sign, nidx = merged
            term = dc if sign > 0 else -dc
            _accumulate(out, nidx, term)
    return DiffForm(chart, degree, out)


# -- Schouten bracket ---------------------------------------------------------


def _xi_derivative_right(x: MultiVec, i: int) -> MultiVec:
    """Right derivative with respect to the odd generator xi_i."""
    k = x.degree
    if k == 0:
        return MultiVec.zero(x.chart, 0)
    out: dict[Index, RatFunc] = {}
    for idx, c in x.coeffs.items():
        if i not in idx:
            continue
        pos = idx.index(i)
        rest = idx[:pos] + idx[pos + 1 :]
        term = c if (k - 1 - pos) % 2 == 0 else -c
        _accumulate(out, rest, term)
    return MultiVec(x.chart, k - 1, out)


def _x_derivative(x: MultiVec, i: int) -> MultiVec:
    return MultiVec(
        x.chart, x.degree, {idx: c.diff(i) for idx, c in x.coeffs.items()}
    )


def schouten(x: MultiVec, y: MultiVec) -> MultiVec:
    """Schouten bracket via the local superalgebra formula

        [x, y] = sum_i d_xi_i x ^ d_i y  -  sign * d_xi_i y ^ d_i x,

    with sign = (-1)^((k-1)(l-1)) for degrees k and l.  For ``x is y`` the
    two sums are equal, so [x, x] = (1 - sign) * sum_i d_xi_i x ^ d_i x,
    zero for odd degree: each derivative and wedge is taken once."""
    if not isinstance(x, MultiVec) or not isinstance(y, MultiVec):
        raise ExprError("schouten expects multivector fields")
    if x.chart != y.chart:
        raise ChartMismatchError("chart mismatch in schouten")
    chart = x.chart
    k, l = x.degree, y.degree
    degree = k + l - 1
    if degree < 0:
        # two degree-0 objects commute
        return MultiVec.zero(chart, 0)
    result = MultiVec.zero(chart, degree)
    sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
    if x is y:
        if sign == 1:
            return result
        for i in range(chart.dim):
            dx_xi = _xi_derivative_right(x, i)
            if not dx_xi.is_zero:
                result = result + wedge(dx_xi, _x_derivative(x, i))
        return result.scale(2)
    for i in range(chart.dim):
        dx_xi = _xi_derivative_right(x, i)
        if not dx_xi.is_zero:
            result = result + wedge(dx_xi, _x_derivative(y, i))
        dy_xi = _xi_derivative_right(y, i)
        if not dy_xi.is_zero:
            result = result + wedge(dy_xi, _x_derivative(x, i)).scale(-sign)
    return result


def lie_derivative(x: MultiVec, t):
    """Lie derivative along a vector field: Cartan on forms, Schouten on
    multivectors."""
    if x.degree != 1:
        raise ExprError("lie_derivative needs a degree-1 multivector")
    if isinstance(t, DiffForm):
        if t.chart != x.chart:
            raise ChartMismatchError("chart mismatch in lie_derivative")
        if t.degree == 0:
            return DiffForm.from_scalar(x.apply_to(t.scalar()))
        return contract(exterior_derivative(t), x) + exterior_derivative(contract(t, x))
    if isinstance(t, MultiVec):
        return schouten(x, t)
    if isinstance(t, RatFunc):
        return x.apply_to(t)
    raise ExprError(f"cannot take a Lie derivative of {type(t).__name__}")


# -- polynomial maps between charts -------------------------------------------


@dataclass(frozen=True)
class PolyMap:
    """Map between charts given by one RatFunc per target coordinate."""

    source: Chart
    target: Chart
    components: tuple[RatFunc, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ExprError("component count must equal target dimension")
        for c in self.components:
            if c.chart != self.source:
                raise ChartMismatchError("components must live on the source chart")

    @staticmethod
    def identity(chart: Chart) -> "PolyMap":
        return PolyMap(
            chart, chart, tuple(RatFunc.var(chart, i) for i in range(chart.dim))
        )

    @staticmethod
    def linear(source: Chart, target: Chart, matrix) -> "PolyMap":
        """Components (matrix @ source coordinates)."""
        comps = []
        for row in matrix:
            acc = RatFunc.zero(source)
            for j, a in enumerate(row):
                acc = acc + RatFunc.const(source, a) * RatFunc.var(source, j)
            comps.append(acc)
        return PolyMap(source, target, tuple(comps))

    def __call__(self, point):
        return [c.eval(point) for c in self.components]

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner."""
        if inner.target != self.source:
            raise ChartMismatchError("composition chart mismatch")
        comps = tuple(c.subst(list(inner.components)) for c in self.components)
        return PolyMap(inner.source, self.target, comps)

    def jacobian(self) -> list[list[RatFunc]]:
        return [
            [c.diff(j) for j in range(self.source.dim)] for c in self.components
        ]

    def jacobian_at(self, point) -> list[list[Fraction]]:
        return [[e.eval(point) for e in row] for row in self.jacobian()]

    @property
    def is_polynomial(self) -> bool:
        return all(c.is_polynomial for c in self.components)


def pullback_form(phi: PolyMap, form: DiffForm) -> DiffForm:
    """phi^* form, by substitution and chain rule."""
    if form.chart != phi.target:
        raise ChartMismatchError("form must live on the target chart")
    src = phi.source
    if form.degree > src.dim:
        return DiffForm.zero(src, form.degree)
    comps = list(phi.components)
    jac = phi.jacobian()
    dphi = [
        DiffForm(src, 1, {(j,): jac[i][j] for j in range(src.dim)})
        for i in range(phi.target.dim)
    ]
    out = DiffForm.zero(src, form.degree)
    for idx, c in form.coeffs.items():
        piece = DiffForm.from_scalar(c.subst(comps))
        for i in idx:
            piece = wedge(piece, dphi[i])
        out = out + piece
    return out


def pushforward_bivector_at(phi: PolyMap, pi_matrix, point):
    """J pi J^T for J the Jacobian of phi at the point."""
    from . import linalg

    j = phi.jacobian_at(point)
    return linalg.matmul(linalg.matmul(j, pi_matrix), linalg.transpose(j))
