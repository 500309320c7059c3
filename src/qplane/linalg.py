"""Exact matrix algebra over the scalar field with tensor-leg conventions.

A :class:`LegMatrix` is a square matrix of size n^legs whose rows and
columns are composite indices over 1-based generator indices: for two legs
the pair (i, j) maps to (i-1)*n + (j-1) (0-based storage), for three legs
(i, j, m) maps row-major likewise.  Entries are canonical scalars; zeros
are not stored.

This module verifies the structural input of every plane: the braid
Yang-Baxter equation, minimal polynomials of R-matrices, the projector
entering the B-family calculus, the Wess-Zumino consistency system, and
the wedge-compatibility condition on the braiding of differentials.

``wz_conditions`` evaluates all five consistency conditions on any three
matrices B, C, D; acceptance criterion 3 and the corrupted-matrix tests
call it.  A derivation reads every matrix off R's minimal polynomial:
:class:`Powers` holds E, R, R^2, ..., each product made once, and
``check_min_poly`` proves m(R) = 0 on them, ``projector_q`` reads Q off
them, and a derivation reads D = (qR)^-1 off them too (see
:mod:`qplane.planes`); ``Powers.poly`` is the one evaluation of a
polynomial in R.  So its C is qR for an R that satisfies the braid
relation, its D is C's exact inverse and its B is a polynomial in R, and
from these the three triple-leg conditions follow.  The two-leg
condition (E - B)(E + C) = 0 (:func:`xi_compat`) follows from m(R) = 0
on the paper's eigenvalues, and a derivation evaluates it only on other
declarations.  Likewise ``check_min_poly`` implies
Q Q = Q for every Q that ``projector_q`` returns: Q = L(R) with L the
Lagrange polynomial of lambda1 on {lambda0, lambda1, lambda2}, and the
minimal polynomial divides L^2 - L, whose roots hold every eigenvalue
with at least its multiplicity, also when lambda0 = lambda2.

A matrix product multiplies each distinct pair of entries once: canonical
scalars are equal exactly when their values are, so a memo keyed on the
two operands returns the same product as the multiplication it replaces.
The memo is local to one product and freed with it.

``from_exprs`` reads a dense grid of entry texts with one parse per
distinct text, and stores no zero; the derivation after it reads no
matrix as a dense n^4 grid.

``rref_rows`` is the one exact elimination.  It has three callers:
``echelon``, which gives the reduced basis, keyed by lead word, that the
rewrite rules, the quotient rule, the constraint 1-form and the
constraint spans are read from; the symplectic column solves; and
``mat_inverse``, which no load calls: it is the tests' oracle for D.  A
row is a dict {column: nonzero Scalar}, and its work follows the
nonzeros.  A column -> rows index, kept exact as fill-in adds entries and
cancellation deletes them, gives each pivot column's holding rows, and
only those are eliminated; a row operation visits only the pivot row's
nonzero columns and deletes an entry that cancels, so no zero is stored
or multiplied.  The pivot column's entry, which always cancels, is
deleted without arithmetic.  The pivot is the unused holding row with the
fewest nonzeros (Markowitz's choice, which keeps fill-in down), the
lowest index winning a tie.  The output does not depend on that choice:
a matrix has one reduced row echelon form, so the pivots and values are
those of dense Gauss-Jordan elimination in row order.  It keeps no memo,
so its memory stays what the nonzero entries and the index need.
"""

from __future__ import annotations

from . import scalar
from .scalar import Scalar, Specialization


class LinalgError(ValueError):
    pass


class LegMatrix:
    """Square matrix over Scalar indexed by tensor legs."""

    __slots__ = ("base_dim", "legs", "entries")

    def __init__(self, base_dim: int, legs: int, entries=None):
        if base_dim < 2:
            raise LinalgError("base_dim must be at least 2")
        if legs not in (2, 3):
            raise LinalgError("legs must be 2 or 3")
        self.base_dim = base_dim
        self.legs = legs
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    @property
    def size(self):
        return self.base_dim ** self.legs

    def __getitem__(self, rc) -> Scalar:
        return self.entries.get(rc, scalar.ZERO)

    def __setitem__(self, rc, value: Scalar):
        r, c = rc
        if not (0 <= r < self.size and 0 <= c < self.size):
            raise LinalgError(f"index {rc} out of range for size {self.size}")
        if value.is_zero():
            self.entries.pop(rc, None)
        else:
            self.entries[rc] = value

    def composite(self, *indices) -> int:
        """Map 1-based leg indices to the composite 0-based index."""
        if len(indices) != self.legs:
            raise LinalgError(f"expected {self.legs} indices")
        out = 0
        for i in indices:
            if not 1 <= i <= self.base_dim:
                raise LinalgError(f"leg index {i} out of range")
            out = out * self.base_dim + (i - 1)
        return out

    def at(self, row_indices, col_indices) -> Scalar:
        return self[self.composite(*row_indices), self.composite(*col_indices)]

    # -- ring operations ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LegMatrix):
            return NotImplemented
        return (
            self.base_dim == other.base_dim
            and self.legs == other.legs
            and self.entries == other.entries
        )

    def __add__(self, other):
        self._check_shape(other)
        out = self.copy()
        for rc, v in other.entries.items():
            out[rc] = out[rc] + v
        return out

    def __sub__(self, other):
        self._check_shape(other)
        out = self.copy()
        for rc, v in other.entries.items():
            out[rc] = out[rc] - v
        return out

    def __mul__(self, other):
        """Matrix product, or scaling by a Scalar; cancelled sums are not
        stored."""
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check_shape(other)
        cols = {}
        for (r, c), v in other.entries.items():
            cols.setdefault(r, []).append((c, v))
        # equal canonical scalars are equal values, so each distinct pair
        # of entries is multiplied once; the memo lives for this call only
        products = {}
        acc = {}
        for (r, k), u in self.entries.items():
            for c, v in cols.get(k, ()):
                prod = products.get((u, v))
                if prod is None:
                    prod = products[u, v] = u * v
                key = (r, c)
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        out = LegMatrix(self.base_dim, self.legs)
        out.entries = {key: v for key, v in acc.items() if not v.is_zero()}
        return out

    def scale(self, c: Scalar) -> "LegMatrix":
        out = LegMatrix(self.base_dim, self.legs)
        for rc, v in self.entries.items():
            out[rc] = v * c
        return out

    def copy(self) -> "LegMatrix":
        out = LegMatrix(self.base_dim, self.legs)
        out.entries = dict(self.entries)
        return out

    def is_zero(self):
        return not self.entries

    def specialize(self, sp: Specialization) -> "LegMatrix":
        out = LegMatrix(self.base_dim, self.legs)
        for rc, v in self.entries.items():
            out[rc] = v.specialize(sp)
        return out

    def _check_shape(self, other):
        if self.base_dim != other.base_dim or self.legs != other.legs:
            raise LinalgError("shape mismatch")

    def __repr__(self):
        return f"LegMatrix(n={self.base_dim}, legs={self.legs}, nnz={len(self.entries)})"


def identity(base_dim: int, legs: int = 2) -> LegMatrix:
    out = LegMatrix(base_dim, legs)
    for r in range(out.size):
        out[r, r] = scalar.ONE
    return out


def from_exprs(rows, base_dim: int, legs: int = 2, name: str = "matrix"
               ) -> LegMatrix:
    """Build a LegMatrix from a dense grid of scalar-expression strings.

    Each distinct text is parsed once (parsing is pure and scalars are
    immutable), and a zero entry stores nothing.  A text that does not
    parse raises a ScalarError naming its first cell in row-major order,
    as ``name[row][col]`` with 0-based indices.
    """
    out = LegMatrix(base_dim, legs)
    size = out.size
    if len(rows) != size or any(len(r) != size for r in rows):
        raise LinalgError(f"expected a dense {size}x{size} grid")
    parsed = {}
    for r, row in enumerate(rows):
        for c, text in enumerate(row):
            text = str(text)
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = scalar.parse_scalar(
                    text, where=f"{name}[{r}][{c}]")
            if not value.is_zero():
                out.entries[r, c] = value
    return out


def embed(m: LegMatrix, position: str) -> LegMatrix:
    """Place a 2-leg matrix on legs (1,2) or (2,3) of a triple product."""
    if m.legs != 2:
        raise LinalgError("embed expects a 2-leg matrix")
    n = m.base_dim
    out = LegMatrix(n, 3)
    # each entry of m lands on n distinct in-range cells, and none is zero
    entries = out.entries
    if position == "12":
        # M x E
        for (r, c), v in m.entries.items():
            for k in range(n):
                entries[r * n + k, c * n + k] = v
    elif position == "23":
        # E x M
        n2 = n * n
        for (r, c), v in m.entries.items():
            for k in range(n):
                entries[k * n2 + r, k * n2 + c] = v
    else:
        raise LinalgError("position must be '12' or '23'")
    return out


def check_ybe(r_matrix: LegMatrix) -> bool:
    """Braid Yang-Baxter equation R12 R23 R12 == R23 R12 R23, checked as
    X R12 == R23 X with X = R12 R23: three triple-leg products."""
    r12 = embed(r_matrix, "12")
    r23 = embed(r_matrix, "23")
    x = r12 * r23
    return x * r12 == r23 * x


class Powers:
    """E, R, R^2, ... of one matrix R, each made once, when first read.

    R^k is R^(k-1) R, so reading powers up to R^k costs k - 1 products in
    all, in whatever order they are read.  ``check_min_poly``,
    ``projector_q`` and a derivation that reads D off the minimal
    polynomial share one Powers, and so its products.
    """

    __slots__ = ("_powers",)

    def __init__(self, r_matrix: LegMatrix):
        self._powers = [identity(r_matrix.base_dim, r_matrix.legs), r_matrix]

    def __getitem__(self, k: int) -> LegMatrix:
        powers = self._powers
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def poly(self, coeffs) -> LegMatrix:
        """The sum of coeffs[k] R^k, entrywise, with no product beyond
        the powers; a zero coefficient reads no power.

        The sum is taken with the coefficients' denominators cleared
        (:func:`qplane.scalar.clear_denominators`) and divided out once
        per entry, so Laurent-polynomial powers sum without a gcd.
        """
        coeffs, den = scalar.clear_denominators(list(coeffs))
        acc = {}
        for k, c in enumerate(coeffs):
            if c.is_zero():
                continue
            for rc, v in self[k].entries.items():
                term = v if c == scalar.ONE else v * c
                prev = acc.get(rc)
                acc[rc] = term if prev is None else prev + term
        r = self._powers[1]
        out = LegMatrix(r.base_dim, r.legs)
        out.entries = {rc: v for rc, v in acc.items() if not v.is_zero()}
        return out if den == scalar.ONE else out.scale(den.inverse())


def _powers(r) -> Powers:
    """``r`` if it is a Powers, else the Powers of the matrix ``r``."""
    return r if isinstance(r, Powers) else Powers(r)


def monic_coefficients(roots):
    """c_0, ..., c_k of the monic polynomial prod (x - root), lowest
    degree first; c_0 = m(0) is the product of the -root."""
    coeffs = [scalar.ONE]
    for lam in roots:
        # (x - lam) p: c_j = p_(j-1) - lam p_j
        coeffs = [a - lam * b for a, b in
                  zip([scalar.ZERO] + coeffs, coeffs + [scalar.ZERO])]
    return coeffs


def check_min_poly(r_matrix, eigenvalues) -> bool:
    """True iff m(R), the product of (R - lambda E) over the eigenvalues,
    vanishes.

    ``r_matrix`` is a LegMatrix or its :class:`Powers`.  m(R) is read off
    E, R, ..., R^k for k eigenvalues, so it costs k - 1 products, and the
    powers stay on a given Powers for the caller to read.
    """
    return _powers(r_matrix).poly(monic_coefficients(eigenvalues)).is_zero()


def projector_q(r_matrix, lambda0: Scalar, lambda1: Scalar,
                lambda2: Scalar) -> LegMatrix:
    """Spectral projector (R-l0)(R-l2) / ((l1-l0)(l1-l2)) onto the l1 space.

    ``r_matrix`` is a LegMatrix or its :class:`Powers`; Q is read off E,
    R and R^2, one product unless the Powers already holds R^2.
    """
    d10 = lambda1 - lambda0
    d12 = lambda1 - lambda2
    if d10.is_zero() or d12.is_zero():
        raise LinalgError("coincident eigenvalues: projector undefined")
    k = (d10 * d12).inverse()
    return _powers(r_matrix).poly(
        [lambda0 * lambda2 * k, -((lambda0 + lambda2) * k), k])


def rref_rows(rows, ncols):
    """rref of sparse rows; returns (rows, pivot cols).

    Each row is a dict {column: nonzero Scalar} over columns
    0 .. ``ncols`` - 1, and so is each returned row; a cancelled entry is
    deleted.  The returned rows are the pivot rows in pivot order, then
    the rows that reduced to zero, as empty dicts.

    The work follows the nonzeros: an index lists, for each column, the
    rows that hold it, and it is kept exact as fill-in adds entries and
    cancellation deletes them.  Pivot columns are taken left to right;
    the pivot is the row not yet a pivot that holds the column with the
    fewest nonzeros, the lowest index winning a tie, and only the rows
    the index lists for the column are eliminated.  The output does not
    depend on that choice: a matrix has one reduced row echelon form, so
    its pivot columns and reduced rows are those of any other choice.
    """
    rows = [dict(r) for r in rows]
    holders = {}
    for r, row in enumerate(rows):
        for c in row:
            if c in holders:
                holders[c].add(r)
            else:
                holders[c] = {r}
    used = set()
    order = []
    pivots = []
    for col in sorted(holders):
        if col >= ncols:
            break
        held = holders.pop(col)
        p = None
        for r in held:
            if r in used:
                continue
            n = len(rows[r])
            if p is None or n < size or n == size and r < p:
                p, size = r, n
        if p is None:
            continue
        row = rows[p]
        lead = row.pop(col)
        if lead != scalar.ONE:
            inv = lead.inverse()
            row = {c: v * inv for c, v in row.items()}
        # the pivot column's own entry cancels in every eliminated row
        rest = row.items()
        for r in held:
            if r == p:
                continue
            other = rows[r]
            f = other.pop(col)
            for c, b in rest:
                a = other.get(c)
                if a is None:
                    other[c] = -(f * b)
                    holders[c].add(r)
                else:
                    v = a - f * b
                    if v.is_zero():
                        del other[c]
                        holders[c].discard(r)
                    else:
                        other[c] = v
        row[col] = scalar.ONE
        rows[p] = row
        used.add(p)
        order.append(p)
        pivots.append(col)
    return ([rows[p] for p in order]
            + [rows[r] for r in range(len(rows)) if r not in used], pivots)


def echelon(vectors, key):
    """The reduced echelon basis of the span of ``vectors``, {lead: row}.

    A vector is a dict {label: nonzero Scalar}, and labels are ordered by
    ``key``, largest first.  A row is monic at its lead, its largest
    label, which no other row holds.  Rows come in pivot order, and each
    row's labels in label order.
    """
    vectors = list(vectors)
    labels = sorted({label for v in vectors for label in v}, key=key,
                    reverse=True)
    column = {label: c for c, label in enumerate(labels)}
    rows, pivots = rref_rows(
        [{column[label]: x for label, x in v.items()} for v in vectors],
        len(labels))
    return {labels[p]: {labels[c]: row[c] for c in sorted(row)}
            for p, row in zip(pivots, rows)}


def mat_inverse(m: LegMatrix) -> LegMatrix:
    """Inverse via Gauss-Jordan elimination; raises on singular input."""
    n = m.size
    aug = [{} for _ in range(n)]
    for (r, c), v in m.entries.items():
        aug[r][c] = v
    for r in range(n):
        aug[r][n + r] = scalar.ONE
    reduced, pivots = rref_rows(aug, 2 * n)
    rank = sum(1 for p in pivots if p < n)
    if rank < n:
        raise LinalgError(f"matrix is singular (rank {rank} of {n})")
    out = LegMatrix(m.base_dim, m.legs)
    for r in range(n):
        for c, v in sorted(reduced[r].items()):
            if c >= n:
                out[r, c - n] = v
    return out


# the names of the five Wess-Zumino consistency conditions, in order
WZ_CONDITIONS = ("wz1_xx_xi_compat", "wz2_xx_transport",
                 "wz3_dc_braid_and_inverse", "wz4_ff_xi_compat",
                 "wz5_dd_transport")


def wz_conditions(b: LegMatrix, c: LegMatrix, d: LegMatrix):
    """The five Wess-Zumino consistency conditions, reported separately
    and keyed by :data:`WZ_CONDITIONS`.

    The derivative relations' matrix F is B on both solution families,
    so the fourth condition, (E-F)(E+C) = 0, is the first, and the fifth
    reads E - B.  The first is evaluated as (E-B)(E+C) = 0, the form that
    follows from applying the exterior differential to the coordinate
    relations with the x-xi exchange convention used throughout
    (x1 xi2 = C12 xi1 x2); both solution families satisfy it, and fail
    the printed minus sign.
    """
    for mat in (c, d):
        b._check_shape(mat)
    e2 = identity(b.base_dim, 2)
    c12 = embed(c, "12")
    c23 = embed(c, "23")
    # conditions 2, 3 and 5 share the two triple-leg products of C
    c23c12 = c23 * c12
    c12c23 = c12 * c23
    wz1 = xi_compat(b, c)
    # conditions 2 and 5 are linear in E-B: checked on the cleared matrix
    eb, _ = clear_denominators(e2 - b)
    wz2 = embed(eb, "12") * c23c12 == c23c12 * embed(eb, "23")
    braid = (embed(d, "23") * c12c23) == (c12c23 * embed(d, "12"))
    wz3 = braid and (c * d) == e2 and (d * c) == e2
    wz5 = embed(eb, "23") * c12c23 == c12c23 * embed(eb, "12")
    return dict(zip(WZ_CONDITIONS, (wz1, wz2, wz3, wz1, wz5)))


def xi_compat(b: LegMatrix, c: LegMatrix) -> bool:
    """Conditions 1 and 4, (E-B)(E+C) = 0, one two-leg product.

    It is linear in E-B, so it is checked on the denominator-cleared
    matrix (see :func:`clear_denominators`).
    """
    e2 = identity(b.base_dim, 2)
    eb, _ = clear_denominators(e2 - b)
    return (eb * (e2 + c)).is_zero()


def clear_denominators(m: LegMatrix):
    """(c*m, c) with c the monic lcm of the entry denominators of m.

    The entries of c*m are Laurent polynomials in s (times their powers
    of rho), so products of them never run a gcd.  Because c is a
    nonzero scalar, an identity linear in m (M X = 0, or M X = Y M) holds
    for c*m exactly when it holds for m; any other identity is scaled side
    by side with the matching power of c (Q*Q == Q becomes M*M == c*M).
    The check on c*m is thus the same exact proof, not a sample.
    """
    values, c = scalar.clear_denominators(list(m.entries.values()))
    return LegMatrix(m.base_dim, m.legs, dict(zip(m.entries, values))), c


def wedge_condition(d: LegMatrix, gamma: LegMatrix) -> bool:
    """Wedge well-definedness (D+E)(E-Gamma) = 0."""
    e = identity(d.base_dim, 2)
    return ((d + e) * (e - gamma)).is_zero()


def gamma_condition(d: LegMatrix, gamma: LegMatrix) -> bool:
    """The wedge condition together with YBE(Gamma)."""
    return wedge_condition(d, gamma) and check_ybe(gamma)
