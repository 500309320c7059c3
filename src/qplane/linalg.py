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

A matrix product multiplies each distinct pair of entries once: canonical
scalars are equal exactly when their values are, so a memo keyed on the
two operands returns the same product as the multiplication it replaces.
The memo is local to one product and freed with it.

``rref_rows`` is the one exact elimination (rule pivoting, ``mat_inverse``
and the symplectic solves run through it).  A row is a dict {column:
nonzero Scalar}: a row operation visits only the pivot row's nonzero
columns and deletes an entry that cancels, so no zero is stored or
multiplied, and the pivots and values are those of dense Gauss-Jordan
elimination.  It keeps no memo, so its memory stays what the nonzero
entries need.
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

    def set_at(self, row_indices, col_indices, value: Scalar):
        self[self.composite(*row_indices), self.composite(*col_indices)] = value

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


def from_exprs(rows, base_dim: int, legs: int = 2) -> LegMatrix:
    """Build a LegMatrix from a dense grid of scalar-expression strings."""
    out = LegMatrix(base_dim, legs)
    size = out.size
    if len(rows) != size or any(len(r) != size for r in rows):
        raise LinalgError(f"expected a dense {size}x{size} grid")
    for r, row in enumerate(rows):
        for c, text in enumerate(row):
            out[r, c] = scalar.parse_scalar(str(text))
    return out


def embed(m: LegMatrix, position: str) -> LegMatrix:
    """Place a 2-leg matrix on legs (1,2) or (2,3) of a triple product."""
    if m.legs != 2:
        raise LinalgError("embed expects a 2-leg matrix")
    n = m.base_dim
    out = LegMatrix(n, 3)
    if position == "12":
        # M x E
        for (r, c), v in m.entries.items():
            for k in range(n):
                out[r * n + k, c * n + k] = v
    elif position == "23":
        # E x M
        n2 = n * n
        for (r, c), v in m.entries.items():
            for k in range(n):
                out[k * n2 + r, k * n2 + c] = v
    else:
        raise LinalgError("position must be '12' or '23'")
    return out


def check_ybe(r_matrix: LegMatrix) -> bool:
    """Braid Yang-Baxter equation R12 R23 R12 == R23 R12 R23."""
    r12 = embed(r_matrix, "12")
    r23 = embed(r_matrix, "23")
    return (r12 * r23 * r12) == (r23 * r12 * r23)


def check_min_poly(r_matrix: LegMatrix, eigenvalues) -> bool:
    """True iff the product of (R - lambda E) over eigenvalues vanishes."""
    e = identity(r_matrix.base_dim, r_matrix.legs)
    acc = e
    for lam in eigenvalues:
        acc = acc * (r_matrix - e.scale(lam))
    return acc.is_zero()


def projector_q(r_matrix: LegMatrix, lambda0: Scalar, lambda1: Scalar,
                lambda2: Scalar) -> LegMatrix:
    """Spectral projector (R-l0)(R-l2) / ((l1-l0)(l1-l2)) onto the l1 space."""
    d10 = lambda1 - lambda0
    d12 = lambda1 - lambda2
    if d10.is_zero() or d12.is_zero():
        raise LinalgError("coincident eigenvalues: projector undefined")
    e = identity(r_matrix.base_dim, r_matrix.legs)
    num = (r_matrix - e.scale(lambda0)) * (r_matrix - e.scale(lambda2))
    return num.scale((d10 * d12).inverse())


def rref_rows(rows, ncols):
    """rref of sparse rows; returns (rows, pivot cols).

    Each row is a dict {column: nonzero Scalar} over columns
    0 .. ``ncols`` - 1, and so is each returned row; a cancelled entry is
    deleted.  Pivots are the leftmost nonzero entries, searched in the
    given row order, so derived rule systems are byte-for-byte
    reproducible.
    """
    rows = [dict(r) for r in rows]
    nrows = len(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if col in rows[r]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col].inverse()
        pivot = rows[rank] = {c: v * inv for c, v in rows[rank].items()}
        for r in range(nrows):
            row = rows[r]
            f = row.get(col)
            if f is None or r == rank:
                continue
            for c, b in pivot.items():
                a = row.get(c)
                if a is None:
                    row[c] = -(f * b)
                else:
                    v = a - f * b
                    if v.is_zero():
                        del row[c]
                    else:
                        row[c] = v
        pivots.append(col)
        rank += 1
    return rows, pivots


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


def wz_conditions(b: LegMatrix, c: LegMatrix, d: LegMatrix, f: LegMatrix):
    """The five Wess-Zumino consistency conditions, reported separately.

    The first and fourth are evaluated as (E-B)(E+C) = 0 and (E-F)(E+C) = 0:
    this is the form that follows from applying the exterior differential to
    the coordinate relations with the x-xi exchange convention used
    throughout (x1 xi2 = C12 xi1 x2), and it is the form both solution
    families actually satisfy.  The printed minus sign fails for both.
    """
    for mat in (c, d, f):
        b._check_shape(mat)
    e2 = identity(b.base_dim, 2)
    c12 = embed(c, "12")
    c23 = embed(c, "23")
    # conditions 2, 3 and 5 share the two triple-leg products of C
    c23c12 = c23 * c12
    c12c23 = c12 * c23
    # conditions 1, 2, 4 and 5 are linear in E-B or E-F, so they are
    # checked on the denominator-cleared matrices (see clear_denominators)
    eb, _ = clear_denominators(e2 - b)
    ef, _ = clear_denominators(e2 - f)
    checks = {}
    checks["wz1_xx_xi_compat"] = (eb * (e2 + c)).is_zero()
    lhs = embed(eb, "12") * c23c12
    rhs = c23c12 * embed(eb, "23")
    checks["wz2_xx_transport"] = lhs == rhs
    braid = (embed(d, "23") * c12c23) == (c12c23 * embed(d, "12"))
    inverse_ok = (c * d) == e2 and (d * c) == e2
    checks["wz3_dc_braid_and_inverse"] = braid and inverse_ok
    checks["wz4_ff_xi_compat"] = (ef * (e2 + c)).is_zero()
    lhs = embed(ef, "23") * c12c23
    rhs = c12c23 * embed(ef, "12")
    checks["wz5_dd_transport"] = lhs == rhs
    return checks


def clear_denominators(m: LegMatrix):
    """(c*m, c) with c the monic lcm of the entry denominators of m.

    The entries of c*m are Laurent polynomials in s (times their auxiliary
    monomials), so products of them never run a gcd.  Because c is a
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
