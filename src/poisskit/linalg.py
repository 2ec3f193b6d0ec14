"""Exact linear algebra over the rationals, and Pfaffians of antisymmetric
matrices of polynomials or RatFuncs.

Matrices are lists of lists.  Subspaces are represented by lists of spanning
row vectors; their canonical form is the reduced row echelon form with zero
rows dropped, which makes subspace equality a structural comparison.  The
sum of two subspaces is the span of the joined rows, so its dimension is the
``rank`` of the joined list.  A matrix with no rows has the whole space as
its kernel: ``kernel_basis([], ncols)`` is the standard basis.

One sparse forward core does the elimination: ``echelon`` takes rows as
``{column: entry}`` dicts of their nonzero entries, so its cost follows the
nonzeros (the Poisson cohomology matrices have densities of about 1%), and
reduces each row only at its leading entry, against the pivot row there,
until the row's leading column is new.  Its pivot rows form a row echelon
form; their leading columns are the pivot columns of the reduced one, which
is unique.  ``eliminate`` is ``echelon`` followed by one back-substitution,
and ``null_space`` reads a sparse kernel basis off its result;
``kernel_vector`` builds one of those kernel vectors from ``echelon``'s rows
alone.  Poisson cohomology calls ``echelon`` and ``kernel_vector`` directly
and builds no dense matrix, and ``rank`` is the pivot count of ``echelon``.
``rref`` and ``kernel_basis`` are the dense views of ``eliminate`` and
``null_space``; ``canonical_span`` runs on ``rref``, and ``preimage_span``
on ``kernel_basis``, returning a spanning set rather than a canonical one.
All of these take and return dense lists.  A vector in the span of RREF
rows has its coordinates at their pivots.

The core takes rational entries (int or Fraction) and eliminates over the
integers (fraction-free, as in Bareiss, Math. Comp. 1968).  On entry each
row is scaled to the primitive integer row on its line; a row of ints, as in
Poisson cohomology with integral structure constants, only has its content
divided out.  A step that cancels the entry f of a row against the pivot p
of a pivot row takes row <- (p/g) row - (f/g) pivot_row with g = gcd(p, f),
and then divides the row by its content, the gcd of its entries; so the loop
builds no Fraction, and it tests its sums for zero by their truth value.
``eliminate`` divides each pivot row by its pivot once, after the
back-substitution: the reduced row echelon form is unique, so the result is
the one of dividing at every step, with Fraction entries.

``mat_inverse`` reads the RREF of [m | I], and ``det`` takes a small square
rational m through Gaussian elimination over Fraction.

Antisymmetric matrices of polynomials (gauges, Dirac brackets, the
cosymplectic test) are solved by Pfaffians: ``pfaffians`` gives Pf(A_S) for
sorted index tuples S, an inverse entry is a Pfaffian minor over Pf(A), and
the gauge (I + P W)^-1 P a minor summation (``poisson._gauge_pair``).
RatFunc entries are cleared first (``_cleared_matrix``), and
``_primitive_pair`` makes the pair's delta primitive and integral, so each
RatFunc(x_ij, delta) is the one reduced entry whatever the route.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .expr import Poly, _descending, _part_gcd, poly_divexact


def echelon(rows):
    """Sparse forward elimination of rows given as ``{column: entry}`` dicts
    of nonzero rational entries, left unmodified.  Each row is worked on as
    a primitive integer row (``_primitive``), and reduced only at its leading
    entry, against the pivot row there (``_cancel``), until its leading
    column is new; it then becomes the pivot row of that column.
    Returns (pivots, independent): ``pivots`` maps each pivot column to its
    primitive integer row, whose entries lie at that column and after it;
    ``independent`` lists the indices of the rows outside the span of the
    rows before them."""
    pivots = {}
    independent = []
    for i, row in enumerate(rows):
        if not row:
            continue
        row = _primitive(row)
        pc = min(row)
        while pc in pivots:
            _cancel(row, pc, pivots[pc])
            if not row:
                break
            pc = min(row)
        else:
            pivots[pc] = row
            independent.append(i)
    return pivots, independent


def eliminate(rows):
    """Sparse Gauss-Jordan: ``echelon``, then a back-substitution that clears
    each pivot row at the later pivots, latest pivot first, and one division
    of each pivot row by its pivot (see the module docstring).
    Returns (reduced, independent): ``reduced`` maps each pivot column to its
    row (1 there, 0 at the other pivots); ``independent`` is ``echelon``'s."""
    pivots, independent = echelon(rows)
    reduced = {}
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        for c in [c for c in row if c != pc and c in reduced]:
            _cancel(row, c, reduced[c])
        reduced[pc] = row
    for pc, row in reduced.items():
        pv = row[pc]
        reduced[pc] = {c: Fraction(x, pv) for c, x in row.items()}
    return reduced, independent


def _primitive(row):
    """A working copy of a nonzero rational row: the integer row of content 1
    on its line.  A row of ints takes only the content step."""
    if all(type(x) is int for x in row.values()):
        g = math.gcd(*row.values())
        return {c: x // g for c, x in row.items()} if g != 1 else dict(row)
    scale = math.lcm(*(x.denominator for x in row.values()))
    row = {c: x.numerator * (scale // x.denominator) for c, x in row.items()}
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g != 1 else row


def _cancel(row, pc, pivot_row):
    """Cancels the entry f of the integer ``row`` at column pc against the
    pivot p of ``pivot_row``, in place, dropping zeros:
    row <- (p/g) row - (f/g) pivot_row with g = gcd(p, f), then divided by
    its content."""
    f, p = row[pc], pivot_row[pc]
    g = math.gcd(p, f)
    a, f = p // g, -(f // g)
    if a != 1:
        for c in row:
            row[c] *= a
    for c, x in pivot_row.items():
        v = row.get(c, 0) + f * x
        if v:
            row[c] = v
        else:
            row.pop(c, None)
    if row:
        g = math.gcd(*row.values())
        if g != 1:
            for c in row:
                row[c] //= g


def null_space(reduced, ncols):
    """Sparse kernel basis of ``eliminate``'s ``reduced`` rows: per free column,
    Fraction(1) there and minus that column of each pivot row at its pivot.
    The vectors come in ascending free-column order, and each vector's first
    key is its free column, with entry 1; its other keys are pivots, so it is
    0 at the other free columns."""
    basis = {c: {c: Fraction(1)} for c in range(ncols) if c not in reduced}
    for pc, row in reduced.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def kernel_vector(pivots, col):
    """``null_space``'s vector for the free column col, from ``echelon``'s
    ``pivots`` alone: Fraction(1) at col, and at each pivot before col, latest
    first, the value that makes its row vanish on the vector.  It is 0 at the
    other free columns and at the pivots after col, as their rows hold only
    entries after col."""
    v = {col: Fraction(1)}
    for pc in sorted((pc for pc in pivots if pc < col), reverse=True):
        row = pivots[pc]
        s = sum(x * v[c] for c, x in row.items() if c in v)
        if s:
            v[pc] = -s / row[pc]
    return v


def _sparse_rows(matrix):
    return [{c: x for c, x in enumerate(dense) if x} for dense in matrix]


def rref(matrix):
    """Reduced row echelon form, the dense view of ``eliminate``.  Returns
    (rows, pivot column indices): the pivot rows in pivot order, then zero
    rows, as many rows as the input."""
    if not matrix:
        return [], []
    cols = len(matrix[0])
    reduced, _ = eliminate(_sparse_rows(matrix))
    pivots = sorted(reduced)
    rows = [[Fraction(0)] * cols for _ in matrix]
    for dense, pc in zip(rows, pivots):
        for c, x in reduced[pc].items():
            dense[c] = x
    return rows, pivots


def rank(matrix) -> int:
    """The dimension of the row span: the number of ``echelon``'s pivots."""
    return len(echelon(_sparse_rows(matrix))[0])


def canonical_span(vectors):
    """Canonical basis (rref rows, zero rows dropped) of the row span."""
    m, pivots = rref(vectors)
    return [m[i] for i in range(len(pivots))]


def kernel_basis(matrix, ncols=None):
    """Basis of the right null space {v : matrix @ v = 0}, ``null_space`` made dense."""
    cols = ncols if ncols is not None else len(matrix[0]) if matrix else 0
    basis = null_space(eliminate(_sparse_rows(matrix))[0], cols)
    return [[v.get(c, Fraction(0)) for c in range(cols)] for v in basis]


def _dot(row, col):
    return functools.reduce(operator.add, map(operator.mul, row, col))


def matvec(m, v):
    return [_dot(row, v) for row in m]


def matmul(a, b):
    bt = list(zip(*b))
    return [[_dot(row, col) for col in bt] for row in a]


def transpose(m):
    return [list(row) for row in zip(*m)]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _cleared(row):
    """(row * scale, scale) for the scale that clears the denominators of a row
    of RatFuncs: the lcm of the denominators (as far as ``_part_gcd`` finds
    common factors) times that of the coefficients'.  A row of polynomials
    with int coefficients is its numerators over 1, as the general steps
    would find."""
    scale = Poly.const(row[0].chart, 1)
    if all(e.den.is_constant and all(type(x) is int for x in e.num.terms.values()) for e in row):
        return [e.num for e in row], scale
    for d in (e.den for e in row if not e.den.is_constant):
        g = d if d == scale else _part_gcd(scale, d)
        scale = scale * (d if g is None else poly_divexact(d, g))
    row = [e.num if e.den == scale else e.num * poly_divexact(scale, e.den) for e in row]
    c = math.lcm(*(x.denominator for p in row for x in p.terms.values()))
    return ([p * c for p in row], scale * c) if c > 1 else (row, scale)


def mat_inverse(m):
    """m^-1 as Fractions for a square rational m, the right half of the RREF
    of [m | I]; None when m is singular."""
    n = len(m)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    return [row[n:] for row in rows] if pivots == list(range(n)) else None


def det(m):
    """det m as a Fraction for a square rational m, by Gaussian elimination;
    m's zero when m is singular."""
    rows, out = [[Fraction(x) for x in row] for row in m], Fraction(1)
    for k in range(len(rows)):
        i = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if i is None:
            return m[0][0] * 0
        rows[k], rows[i] = rows[i], rows[k]
        top = rows[k]
        out *= top[k] if i == k else -top[k]
        for row in rows[k + 1:]:
            f = row[k] / top[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], top[k:])]
    return out


def pfaffians(a):
    """Pf(a_S) as a memoised function of the sorted index tuples S, for an
    antisymmetric matrix a of Polys or RatFuncs: the expansion along S's first
    index, sum_k (-1)^(k+1) a[s_0][s_k] Pf(a_(S - s_0 - s_k)), skipping zero
    entries and zero sub-Pfaffians.  Pf(a_()) = 1.  It reads a[0][0], for its
    zero, and the entries a[i][j] with i < j only, so a matrix that is zero
    below the diagonal, as ``_cleared_matrix``'s is, will do.  The memo is a
    plain dict in a partial, not a closure that calls itself, so it leaves no
    reference cycle for the garbage collector.

    Pass a cleared matrix of Polys (``_cleared_matrix``), as the gauge pair,
    ``dirac.dirac_bracket`` and the exact ``dirac.classify_submanifold`` do.
    On RatFunc entries with distinct denominators every sum of the expansion
    cancels through gcds: a 6 x 6 one of degree-2 entries, each over its own
    1 + h^2, ran for over ten minutes."""
    zero = a[0][0] * 0
    return functools.partial(_pfaffian, a, {(): type(zero).const(zero.chart, 1)}, zero)


def _pfaffian(a, memo, zero, s):
    out = memo.get(s)
    if out is not None:
        return out
    if len(s) == 2:
        return a[s[0]][s[1]]
    if len(s) % 2:
        return zero
    out, first = zero, a[s[0]]
    for k in range(1, len(s)):
        e = first[s[k]]
        if e.is_zero:
            continue
        rest = _pfaffian(a, memo, zero, s[1:k] + s[k + 1:])
        if not rest.is_zero:
            out = out + e * rest if k % 2 else out - e * rest
    memo[s] = out
    return out


def _cleared_matrix(m):
    """(x, scale) with x[i][j] / scale = m[i][j] above the diagonal of an
    antisymmetric m and x zero on and below it: ``_cleared`` on m's zero
    diagonal entry and the entries above it at once.  Only ``pfaffians``
    reads x, and it reads no entry below the diagonal."""
    upper = list(itertools.combinations(range(len(m)), 2))
    (zero, *flat), scale = _cleared([m[0][0]] + [m[i][j] for i, j in upper])
    x = [[zero] * len(m) for _ in m]
    for (i, j), e in zip(upper, flat):
        x[i][j] = e
    return x, scale


def _primitive_pair(x, delta):
    """({key: c x_key}, c delta) in descending graded-lex order, for the c > 0
    that makes delta != 0 primitive and integral."""
    values = delta.terms.values()
    c = Fraction(math.lcm(*(v.denominator for v in values)),
                 math.gcd(*(v.numerator for v in values)))
    if c != 1:
        x, delta = {k: e * c for k, e in x.items()}, delta * c
    return {k: _descending(e) for k, e in x.items()}, _descending(delta)


def preimage_span(matrix, span):
    """Rows spanning {v : matrix @ v in row-span(span)}: the kernel of
    [matrix | -span^T] projected to v, a basis when the rows of ``span`` are
    independent, since then v determines the coefficients c."""
    cols = len(matrix[0])
    big = [list(row) + [-s[i] for s in span] for i, row in enumerate(matrix)]
    return [s[:cols] for s in kernel_basis(big, ncols=cols + len(span))]
