"""Transcribed reference tables used as regression fixtures.

Everything here is input data, not derived: the braid matrices of the two
built-in planes, the printed relation tables they are supposed to
reproduce, the explicit D-matrix table for the 3-dimensional orthogonal
plane, and the expected sphere bracket table.  The engine treats its own
R-matrix-derived results as the source of truth and diffs them against
these tables; any mismatch is reported entry by entry.

Index conventions: gl2 rows/columns run over the pairs
(1,1),(1,2),(2,1),(2,2) for generators (x, y); orth3 over
++, +0, +-, 0+, 00, 0-, -+, -0, -- for generators (x+, x0, x-).
Half-integer powers of q are written via s = q^(1/2).
"""

# 2-dimensional quantum plane, GL_q(2) braid matrix.
R_GL2 = [
    ["q", "0", "0", "0"],
    ["0", "q - q^-1", "1", "0"],
    ["0", "1", "0", "0"],
    ["0", "0", "0", "q"],
]
GL2_GENERATORS = ("x", "y")

# 3-dimensional orthogonal quantum plane (B1 family) braid matrix,
# d = q - q^-1, basis order (+, 0, -).
_D = "(q - q^-1)"
R_ORTH3 = [
    ["q", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", _D, "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", _D + "*(1 - q^-1)", "0", "-" + _D + "/s", "0", "q^-1", "0", "0"],
    ["0", "1", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "-" + _D + "/s", "0", "1", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", _D, "0", "1", "0"],
    ["0", "0", "q^-1", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "q"],
]
ORTH3_GENERATORS = ("x+", "x0", "x-")

# Printed D = (q R)^-1 table for orth3, with a = d (1 - q^-1).
D_ORTH3_TABLE = [
    ["q^-2", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "q^-1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "q^-1", "0", "-" + _D + "/q", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "q^-1", "0", _D + "/s", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "q^-1", "0"],
    ["0", "0", "1", "0", _D + "/s", "0", _D + "*(1 - q^-1)", "0", "0"],
    ["0", "0", "0", "0", "0", "q^-1", "0", "-" + _D + "/q", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "q^-2"],
]

# Relation tables as (name, lhs, rhs) in the element grammar.  A fixture
# holds iff lhs - rhs normal-forms to zero under the derived rules.

GL2_COORD_RELATIONS = [
    ("xy=q.yx", "x*y", "q*y*x"),
]

GL2_DIFF_RELATIONS = [
    ("dx.dx=0", "d(x)*d(x)", "0"),
    ("dy.dy=0", "d(y)*d(y)", "0"),
    ("dx.dy=-(1/q)dy.dx", "d(x)*d(y)", "-(1/q)*d(y)*d(x)"),
]

GL2_DERIV_RELATIONS = [
    ("Dy.Dx=q.Dx.Dy", "D(y)*D(x)", "q*D(x)*D(y)"),
]

ORTH3_COORD_RELATIONS = [
    ("x+.x0", "x+ * x0", "q * x0 * x+"),
    ("x0.x-", "x0 * x-", "q * x- * x0"),
    ("x+.x- comm", "x+ * x- - x- * x+", "(s^-1 - s) * x0 * x0"),
]

ORTH3_DIFF_COORD_RELATIONS = [
    ("x+.dx+", "x+ * d(x+)", "q^2 * d(x+) * x+"),
    ("x+.dx0", "x+ * d(x0)", "q * d(x0) * x+ + (q^2 - 1) * d(x+) * x0"),
    ("x+.dx-", "x+ * d(x-)",
     "d(x-) * x+ + (q^-1 - q) * s * d(x0) * x0 - (q^-1 - q) * (q - 1) * d(x+) * x-"),
    ("x0.dx+", "x0 * d(x+)", "q * d(x+) * x0"),
    ("x0.dx0", "x0 * d(x0)", "q * d(x0) * x0 + (q^-1 - q) * s * d(x+) * x-"),
    ("x0.dx-", "x0 * d(x-)", "q * d(x-) * x0 + (q^2 - 1) * d(x0) * x-"),
    ("x-.dx+", "x- * d(x+)", "d(x+) * x-"),
    ("x-.dx0", "x- * d(x0)", "q * d(x0) * x-"),
    ("x-.dx-", "x- * d(x-)", "q^2 * d(x-) * x-"),
]

ORTH3_DERIV_COORD_RELATIONS = [
    ("D+.x+", "D(x+) * x+",
     "1 - (q^-1 - q) * (q - 1) * x- * D(x-) + (q^2 - 1) * x0 * D(x0)"
     " + q^2 * x+ * D(x+)"),
    ("D+.x0", "D(x+) * x0", "(s^-1 - s^3) * x- * D(x0) + q * x0 * D(x+)"),
    ("D+.x-", "D(x+) * x-", "x- * D(x+)"),
    ("D0.x+", "D(x0) * x+", "(s^-1 - s^3) * x0 * D(x-) + q * x+ * D(x0)"),
    ("D0.x0", "D(x0) * x0", "1 + (q^2 - 1) * x- * D(x-) + q * x0 * D(x0)"),
    ("D0.x-", "D(x0) * x-", "q * x- * D(x0)"),
    ("D-.x+", "D(x-) * x+", "x+ * D(x-)"),
    ("D-.x0", "D(x-) * x0", "q * x0 * D(x-)"),
    ("D-.x-", "D(x-) * x-", "1 + q^2 * x- * D(x-)"),
]

# Squared-radius element of the quantum sphere and the one-form combination
# its differential is proportional to.
SPHERE_CENTRAL = "s^-1 * x+ * x- + x0 * x0 + s * x- * x+"
SPHERE_DIFF_CONSTRAINT = "x0 * d(x0) + s * x- * d(x+) + s^-1 * x+ * d(x-)"

# Two-form of the gl2 symplectic structure (body and prefactor).
GL2_SYMPLECTIC_BODY = "d(x)*d(y)"
GL2_SYMPLECTIC_SCALE = "1"

# Two-form of the sphere symplectic structure (body and prefactor).
SPHERE_SYMPLECTIC_BODY = (
    "-(x+ * d(x-) * d(x0)) + x- * d(x0) * d(x+) - x0 * d(x+) * d(x-)"
)
SPHERE_SYMPLECTIC_SCALE = "1/(i*rho)"

# Hamiltonian vector fields: generator -> list of (coefficient, direction).
GL2_HAMILTONIAN_FIELDS = {
    "x": [("q", "y")],
    "y": [("-q^2", "x")],
}

SPHERE_HAMILTONIAN_FIELDS = {
    "x+": [("-1 * x+", "x0"), ("-i * x0", "x-")],
    "x-": [("-1 * x-", "x0"), ("i * x0", "x+")],
    "x0": [("-1 * x-", "x-"), ("-1 * x+", "x+")],
}

# Poisson bracket tables: (f, g) -> expected bracket.
GL2_BRACKETS = {
    ("x", "y"): "-q",
    ("y", "x"): "q^2",
}

SPHERE_BRACKETS = {
    ("x+", "x-"): "i * x0",
    ("x-", "x+"): "-i * x0",
    ("x0", "x+"): "x+",
    ("x0", "x-"): "x-",
    ("x+", "x0"): "x+",
    ("x-", "x0"): "x-",
}
