import random

import pytest

from conftest import frt_gl_matrix
from qplane import fixtures, scalar
from qplane.linalg import (
    LegMatrix,
    LinalgError,
    Powers,
    check_min_poly,
    check_ybe,
    clear_denominators,
    embed,
    from_exprs,
    gamma_condition,
    identity,
    mat_inverse,
    monic_coefficients,
    projector_q,
    rref_rows,
    wz_conditions,
)
from qplane.scalar import (
    I,
    ONE,
    POLY_ONE,
    ZERO,
    Scalar,
    ScalarError,
    Specialization,
    parse_scalar,
    rho_power,
)


def r_gl2():
    return from_exprs(fixtures.R_GL2, 2)


def r_orth3():
    return from_exprs(fixtures.R_ORTH3, 3)


Q = parse_scalar("q")
QI = parse_scalar("q^-1")


def test_from_exprs_parses_each_distinct_text_once(monkeypatch):
    calls = []

    def counting(text, where=None):
        calls.append(text)
        return parse_scalar(text, where)

    monkeypatch.setattr(scalar, "parse_scalar", counting)
    rows = frt_gl_matrix(4)
    rows[0][1] = "q - q"  # zero, though not written as "0"
    m = from_exprs(rows, 4)
    assert sorted(calls) == sorted({t for row in rows for t in row})
    assert len(calls) == 5
    # zero entries store nothing: 4 diagonal q, 12 ones, 6 q - q^-1
    assert len(m.entries) == 22
    assert all(not v.is_zero() for v in m.entries.values())
    assert m == LegMatrix(4, 2, {(r, c): parse_scalar(str(t))
                                 for r, row in enumerate(rows)
                                 for c, t in enumerate(row)})


def test_from_exprs_names_the_first_bad_cell():
    rows = [list(row) for row in fixtures.R_GL2]
    rows[2][3] = rows[1][2] = "q^"
    rows[3][0] = "x"
    with pytest.raises(ScalarError) as info:
        from_exprs(rows, 2, name="r_matrix")
    assert str(info.value) == "r_matrix[1][2]: expected integer " \
                              "(at position 2)"


def test_embed_identity():
    e = identity(2)
    assert embed(e, "12") == identity(2, 3)
    assert embed(e, "23") == identity(2, 3)


def test_embed_entry_by_index_arithmetic():
    # ((1,1,2),(1,1,2)) of R x E must equal R[(1,1),(1,1)] = q.
    m = embed(r_gl2(), "12")
    n = 2
    row = ((1 - 1) * n + (1 - 1)) * n + (2 - 1)
    assert m[row, row] == Q


def _embed_by_setitem(m, position):
    """embed as a per-entry ``__setitem__`` build: each cell checked for
    range and zero."""
    n = m.base_dim
    out = LegMatrix(n, 3)
    for (r, c), v in m.entries.items():
        for k in range(n):
            if position == "12":
                out[r * n + k, c * n + k] = v
            else:
                out[k * n * n + r, k * n * n + c] = v
    return out


def test_embed_equals_a_setitem_build():
    mats = [r_gl2(), r_orth3(), identity(3),
            from_exprs(frt_gl_matrix(4), 4)]
    rng = random.Random(5)
    for n in (2, 3):
        size = n * n
        mats.append(LegMatrix(n, 2, {
            (rng.randrange(size), rng.randrange(size)):
                parse_scalar(rng.choice(["q", "-1", "2*i", "s^3 - 1"]))
            for _ in range(size)}))
    for m in mats:
        for position in ("12", "23"):
            got = embed(m, position)
            want = _embed_by_setitem(m, position)
            assert got == want
            # same cells in the same insertion order, none zero
            assert list(got.entries.items()) == list(want.entries.items())
            assert len(got.entries) == m.base_dim * len(m.entries)
    with pytest.raises(LinalgError):
        embed(r_gl2(), "13")
    with pytest.raises(LinalgError):
        embed(identity(2, 3), "12")


def test_embed_mixed_product_property():
    # embed(M,12) * embed(N,23) must equal the full Kronecker product M x N
    r = r_gl2()
    lhs = embed(r, "12") * embed(r, "23")
    assert lhs == kron_oracle(r, r)
    e = identity(2)
    assert embed(r, "12") * embed(e, "23") == embed(r, "12")


def test_embed_same_position_multiplicative():
    # embedding is an algebra map per position: (MN)_12 = M_12 N_12
    r = r_gl2()
    c = r.scale(parse_scalar("q"))
    for pos in ("12", "23"):
        assert embed(r * c, pos) == embed(r, pos) * embed(c, pos)


def kron_oracle(a, b):
    """Dense Kronecker-product oracle for (A x E)(E x B) = sum A_ij,kl B_jm,lp."""
    n = a.base_dim
    out = LegMatrix(n, 3)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for m in range(1, n + 1):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        for p in range(1, n + 1):
                            acc = parse_scalar("0")
                            for t in range(1, n + 1):
                                acc = acc + a.at((i, j), (k, t)) * b.at((t, m), (l, p))
                            if not acc.is_zero():
                                out[out.composite(i, j, m),
                                    out.composite(k, l, p)] = acc
    return out


def reference_product(a, b):
    """Memo-free triple loop over every index: the entries of a*b."""
    size = a.size
    out = {}
    for r in range(size):
        for c in range(size):
            acc = parse_scalar("0")
            for k in range(size):
                acc = acc + a[r, k] * b[k, c]
            if not acc.is_zero():
                out[r, c] = acc
    return out


def test_product_against_triple_loop():
    # a few values and their negatives, so that products repeat and sums
    # cancel; entries of the product that cancel must not be stored
    pool = [parse_scalar(t) for t in ("1", "q", "q - q^-1", "1/(1 + s)",
                                      "2*i")]
    pool += [-v for v in pool]
    rng = random.Random(6)
    cancelled = 0
    for n, legs in ((2, 2), (3, 2), (2, 3)):
        for _ in range(6):
            a, b = LegMatrix(n, legs), LegMatrix(n, legs)
            for m in (a, b):
                for r in range(m.size):
                    for c in range(m.size):
                        if rng.random() < 0.4:
                            m[r, c] = rng.choice(pool)
            want = reference_product(a, b)
            got = a * b
            assert got.entries == want
            assert not any(v.is_zero() for v in got.entries.values())
            touched = {(r, c) for r, k in a.entries for kk, c in b.entries
                       if k == kk}
            cancelled += len(touched - set(want))
    assert cancelled > 0


def test_ybe_gl2():
    assert check_ybe(r_gl2())


def test_ybe_orth3():
    assert check_ybe(r_orth3())


def test_ybe_identity():
    assert check_ybe(identity(2))
    assert check_ybe(identity(3))


def test_ybe_fails_on_corruption():
    r = r_gl2()
    r[0, 0] = parse_scalar("q + 1")
    assert not check_ybe(r)


def test_min_poly_gl2():
    assert check_min_poly(r_gl2(), [Q, parse_scalar("-q^-1")])


def test_min_poly_orth3():
    eigs = [Q, parse_scalar("-q^-1"), parse_scalar("q^-2")]
    assert check_min_poly(r_orth3(), eigs)


def test_min_poly_identity():
    assert check_min_poly(identity(2), [ONE])


def test_projector_idempotent():
    r = r_orth3()
    q = projector_q(r, parse_scalar("q^-2"), parse_scalar("-q^-1"), Q)
    assert q * q == q
    e = identity(3)
    assert (q * (e - q)).is_zero()
    assert ((e - q) * q).is_zero()


def test_projector_coincident_eigenvalues():
    with pytest.raises(LinalgError):
        projector_q(r_orth3(), Q, Q, parse_scalar("-q^-1"))


def _count_products(monkeypatch):
    """The leg counts of the LegMatrix products made from here on."""
    legs = []
    mul = LegMatrix.__mul__

    def counted(a, b):
        legs.append(a.legs)
        return mul(a, b)

    monkeypatch.setattr(LegMatrix, "__mul__", counted)
    return legs


def test_ybe_makes_three_products(monkeypatch):
    # X = R12 R23 once, then X R12 == R23 X
    products = _count_products(monkeypatch)
    assert check_ybe(r_orth3())
    assert products == [3, 3, 3]


def test_powers_make_each_product_once(monkeypatch):
    r = r_orth3()
    powers = Powers(r)
    products = _count_products(monkeypatch)
    assert powers[0] == identity(3) and powers[1] is r
    assert products == []
    r3 = powers[3]
    assert products == [2, 2]
    assert powers[2] * r == r3
    products.clear()
    assert powers[2] is powers[2] and powers[3] is r3
    assert products == []


def test_monic_coefficients_lowest_degree_first():
    # (x - q)(x + q^-1) = x^2 - (q - q^-1) x - 1
    assert monic_coefficients([Q, -QI]) == [
        parse_scalar("-1"), parse_scalar("-(q - q^-1)"), ONE]
    assert monic_coefficients([]) == [ONE]


def test_min_poly_reads_k_minus_one_products(monkeypatch):
    # m(R) is read off E, R, ..., R^k: one product for two eigenvalues,
    # two for three, and a Powers keeps them for projector_q
    eigs = [parse_scalar("q^-2"), -QI, Q]
    powers = Powers(r_orth3())
    products = _count_products(monkeypatch)
    assert check_min_poly(powers, eigs)
    assert products == [2, 2]
    projector_q(powers, *eigs)
    assert products == [2, 2]
    products.clear()
    assert check_min_poly(r_gl2(), [Q, -QI])
    assert products == [2]


def test_min_poly_fails_on_a_wrong_eigenvalue():
    assert not check_min_poly(r_gl2(), [Q, -Q])
    assert not check_min_poly(r_orth3(), [parse_scalar("q^-2"), QI, Q])


def test_projector_equals_its_product_formula():
    # the oracle: (R - l0)(R - l2) / ((l1 - l0)(l1 - l2)) by a product
    r = r_orth3()
    l0, l1, l2 = parse_scalar("q^-2"), -QI, Q
    e = identity(3)
    want = ((r - e.scale(l0)) * (r - e.scale(l2))).scale(
        ((l1 - l0) * (l1 - l2)).inverse())
    assert projector_q(r, l0, l1, l2) == want
    assert projector_q(Powers(r), l0, l1, l2) == want


def test_poly_of_r_equals_the_sum_of_scaled_powers():
    # coefficients with denominators are cleared and divided out once
    r = r_orth3()
    coeffs = [parse_scalar("1/(q + 1)"), parse_scalar("0"),
              parse_scalar("q^-1/(q^2 + 1)")]
    want = identity(3).scale(coeffs[0]) + (r * r).scale(coeffs[2])
    assert Powers(r).poly(coeffs) == want


def test_inverse_roundtrip():
    c = r_gl2().scale(Q)
    cinv = mat_inverse(c)
    assert c * cinv == identity(2)
    assert cinv * c == identity(2)


def test_inverse_of_projector_singular():
    r = r_orth3()
    q = projector_q(r, parse_scalar("q^-2"), parse_scalar("-q^-1"), Q)
    with pytest.raises(LinalgError):
        mat_inverse(q)


def test_singular_inverse_names_the_rank():
    # rows 0 and 2 are equal and row 3 is zero: rank 2 of 4
    m = from_exprs([["1", "q", "0", "0"],
                    ["0", "s", "q^-1", "0"],
                    ["1", "q", "0", "0"],
                    ["0", "0", "0", "0"]], 2)
    with pytest.raises(LinalgError, match=r"singular \(rank 2 of 4\)"):
        mat_inverse(m)
    with pytest.raises(LinalgError, match=r"singular \(rank 0 of 4\)"):
        mat_inverse(LegMatrix(2, 2))


def dense_rref(rows):
    """The dense Gauss-Jordan reference: rref of a list-of-lists of
    Scalars, zeros stored and multiplied; returns (rows, pivot cols)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if not rows[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(nrows):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def _random_dense(rng, nrows, ncols, rho):
    """A seeded matrix with zero rows and columns, repeated and dependent
    rows, and Laurent and rational entries in s.  With ``rho`` entry
    (r, c) carries rho^(e_r + f_c), so every row operation adds equal
    powers of rho."""
    pool = [parse_scalar(t) for t in ("1", "-2", "2*i", "3 - i", "s^4 + 1",
                                      "1/(1 + s^2)", "(s - 2*i)/(3*s + 1)")]
    row_rho = [rng.randint(-1, 1) if rho else 0 for _ in range(nrows)]
    col_rho = [rng.randint(-1, 1) if rho else 0 for _ in range(ncols)]
    zero_cols = {c for c in range(ncols) if rng.random() < 0.15}
    rows = []
    for r in range(nrows):
        row = []
        for c in range(ncols):
            if c in zero_cols or rng.random() < 0.5:
                row.append(ZERO)
                continue
            v = rng.choice(pool) * Scalar(POLY_ONE,
                                          val=rng.randint(-3, 3))
            e = row_rho[r] + col_rho[c]
            row.append(v * rho_power(e) if e else v)
        rows.append(row)
    for r in range(1, nrows):
        e = row_rho[r] - row_rho[r - 1]
        lift = rho_power(e) if e else ONE
        pick = rng.random()
        if pick < 0.15:
            rows[r] = [ZERO] * ncols
        elif pick < 0.3:
            # a multiple of the previous row
            f = rng.choice(pool) * lift
            rows[r] = [f * v for v in rows[r - 1]]
        elif pick < 0.4 and r >= 2:
            # a combination of the two previous rows
            e2 = row_rho[r] - row_rho[r - 2]
            lift2 = rho_power(e2) if e2 else ONE
            rows[r] = [lift * a + (rng.choice(pool) * lift2) * b
                       for a, b in zip(rows[r - 1], rows[r - 2])]
    return rows


@pytest.mark.parametrize("rho", [False, True])
def test_sparse_rref_equals_dense_reference(rho):
    rng = random.Random(11 + rho)
    deficient = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        dense = _random_dense(rng, nrows, ncols, rho)
        sparse = [{c: v for c, v in enumerate(row) if not v.is_zero()}
                  for row in dense]
        want_rows, want_pivots = dense_rref(dense)
        got_rows, got_pivots = rref_rows(sparse, ncols)
        assert got_pivots == want_pivots
        assert [[row.get(c, ZERO) for c in range(ncols)]
                for row in got_rows] == want_rows
        assert all(0 <= c < ncols and not v.is_zero()
                   for row in got_rows for c, v in row.items())
        deficient += len(got_pivots) < min(nrows, ncols)
    assert deficient > 10
    assert rref_rows([], 3) == ([], [])


def test_wz_gl2():
    r = r_gl2()
    b = r.scale(QI)
    c = r.scale(Q)
    d = mat_inverse(c)
    checks = wz_conditions(b, c, d)
    assert all(checks.values()), checks


def orth3_wz_inputs():
    r = r_orth3()
    q_pr = projector_q(r, parse_scalar("q^-2"), parse_scalar("-q^-1"), Q)
    c = r.scale(Q)
    return identity(3) - q_pr, c, mat_inverse(c)


def test_wz_orth3():
    b, c, d = orth3_wz_inputs()
    checks = wz_conditions(b, c, d)
    assert all(checks.values()), checks


def test_clear_denominators_orth3():
    b, _, _ = orth3_wz_inputs()
    m = identity(3) - b
    scaled, c = clear_denominators(m)
    assert not c.is_zero()
    assert not c.is_constant()  # orth3 entries carry s^4 + 1
    assert all(v.den == POLY_ONE for v in scaled.entries.values())
    assert scaled == m.scale(c)


def test_wz_cleared_check_rejects_perturbed_b():
    # the cleared check is not vacuous: B off by 1/(s^4+1) in one entry
    # fails the conditions linear in E-B (F = B, so wz4 and wz5 too), and
    # only those
    b, c, d = orth3_wz_inputs()
    bad = b.copy()
    bad[0, 0] = bad[0, 0] + parse_scalar("1/(s^4 + 1)")
    checks = wz_conditions(bad, c, d)
    assert [k for k, ok in checks.items() if not ok] == \
        ["wz1_xx_xi_compat", "wz2_xx_transport", "wz4_ff_xi_compat",
         "wz5_dd_transport"]


def _wz_inputs(name):
    if name == "gl2":
        r = r_gl2()
        c = r.scale(Q)
        return r.scale(QI), c, mat_inverse(c)
    return orth3_wz_inputs()


@pytest.mark.parametrize("name", ["gl2", "orth3"])
def test_wz_corrupted_d_flips_only_wz3(name):
    b, c, d = _wz_inputs(name)
    bad = d.copy()
    bad[1, 2] = bad[1, 2] + ONE
    checks = wz_conditions(b, c, bad)
    assert [k for k, ok in checks.items() if not ok] == \
        ["wz3_dc_braid_and_inverse"]


def test_wz_all_identity():
    e = identity(2)
    checks = wz_conditions(e, e, e)
    assert all(checks.values())


def test_wz_printed_minus_sign_fails():
    # (E-B)(E-C) as printed does not vanish for the A-family assignment;
    # this pins the sign adjudication in wz_conditions.
    r = r_gl2()
    e = identity(2)
    b = r.scale(QI)
    c = r.scale(Q)
    assert not ((e - b) * (e - c)).is_zero()
    assert ((e - b) * (e + c)).is_zero()


def test_gamma_gl2():
    r = r_gl2()
    c = r.scale(Q)
    d = mat_inverse(c)
    assert gamma_condition(d, r.scale(QI))


def test_gamma_orth3_generic_fails():
    r = r_orth3()
    d = mat_inverse(r.scale(Q))
    assert not gamma_condition(d, d)
    assert not gamma_condition(d, mat_inverse(r))


def test_gamma_sphere_at_q_minus_one():
    sp = Specialization(I)
    r = r_orth3().specialize(sp)
    d = mat_inverse(r.scale(Q.specialize(sp)))
    # D itself passes and squares to E; R^-1 = -D fails the wedge condition
    assert gamma_condition(d, d)
    assert d * d == identity(3)
    assert not gamma_condition(d, mat_inverse(r))


def test_orth3_r_squares_to_identity_at_s_i():
    sp = Specialization(I)
    r = r_orth3().specialize(sp)
    assert r * r == identity(3)


def test_d_matrix_matches_printed_table():
    d = mat_inverse(r_orth3().scale(Q))
    table = from_exprs(fixtures.D_ORTH3_TABLE, 3)
    assert d == table


def test_bcf_polynomials_in_r_commute():
    r = r_gl2()
    b = r.scale(QI)
    c = r.scale(Q)
    f = b
    for lhs, rhs in [(b, c), (b, f), (c, f)]:
        assert lhs * rhs == rhs * lhs
