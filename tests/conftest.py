import itertools

import pytest


def frt_gl_matrix(n):
    """The standard GL_q(n) braid matrix of Faddeev, Reshetikhin and
    Takhtajan as a dense grid of expressions over row-major index pairs."""
    size = n * n
    rows = [["0"] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            row = i * n + j
            if i == j:
                rows[row][row] = "q"
                continue
            rows[row][j * n + i] = "1"
            if i < j:
                rows[row][row] = "q - q^-1"
    return rows


def permute_basis(rows, n, perm):
    """Re-index a braid matrix grid by P (x) P: new index a stands for
    perm[a].  This conjugates R, so it keeps the braid relation."""
    size = n * n

    def old(k):
        return perm[k // n] * n + perm[k % n]

    return [[rows[old(r)][old(c)] for c in range(size)] for r in range(size)]


def glq_plane_document(n, perm=None):
    """A GL_q(n) plane document for n <= 4, with generators a, b, c, e, in
    the basis permuted by ``perm`` if given; no transcribed relation table
    applies."""
    rows = frt_gl_matrix(n)
    if perm is not None:
        rows = permute_basis(rows, n, perm)
    return {"name": f"glq{n}", "dimension": n,
            "generators": list("abce"[:n]), "family": "A",
            "r_matrix": rows, "q": "generic",
            "gamma": "r_over_q"}


def twisted_glq_document(n, reverse):
    """A multiparameter GL_q(n) document: R[(i,j),(j,i)] = t and
    R[(j,i),(i,j)] = 1/t for i < j, with t cycling through 2, 3, 5, 7,
    in the standard basis or the reversed one."""
    size = n * n
    rows = [["0"] * size for _ in range(size)]
    twists = itertools.cycle(["2", "3", "5", "7"])
    for i in range(n):
        rows[i * n + i][i * n + i] = "q"
        for j in range(i + 1, n):
            t = next(twists)
            rows[i * n + j][i * n + j] = "q - q^-1"
            rows[i * n + j][j * n + i] = t
            rows[j * n + i][i * n + j] = f"1/{t}"
    if reverse:
        rows = permute_basis(rows, n, list(range(n - 1, -1, -1)))
    return {"name": f"twisted{n}", "dimension": n,
            "generators": ["a", "b", "c", "e"][:n], "family": "A",
            "r_matrix": rows, "q": "generic",
            "eigenvalues": {"lambda1": "-q^-1", "lambda2": "q"}}


@pytest.fixture
def glq_document():
    """``glq_document(n)``: :func:`glq_plane_document` as a fixture."""
    return glq_plane_document


@pytest.fixture
def glq3_document(glq_document):
    """A GL_q(3) plane document: no transcribed relation table applies."""
    return glq_document(3)
