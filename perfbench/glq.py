"""GL_q(n) quantum-plane documents for the ingestion ladder.

The braid matrix is the standard GL_q(n) R-matrix of Faddeev, Reshetikhin
and Takhtajan (1990), written over the row-major pairs (i, j) of generator
indices:

    R[(i,i),(i,i)] = q
    R[(i,j),(j,i)] = 1          for i != j
    R[(i,j),(i,j)] = q - q^-1   for i < j

and zero elsewhere.  For n = 2 it is the gl2 matrix of the paper.  A basis
permutation p re-indexes the matrix by P (x) P, which conjugates R and so
keeps the braid and Hecke relations; the ingested plane must verify in
either basis.
"""

import json

EIGENVALUES = {"lambda1": "-q^-1", "lambda2": "q"}

# Single letters the element grammar reads as generator names: none is a
# scalar token (i, s, q, rho) or an operator (d, D).
NAME_POOL = ("a", "b", "c", "e", "g", "h", "t", "u", "v", "w", "x", "y", "z")
STANDARD_GL2_NAMES = ("x", "y")


def frt_matrix(n):
    """The standard GL_q(n) braid matrix as a dense grid of expressions."""
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


def permute_matrix(rows, n, perm):
    """Re-index a braid matrix by P (x) P: new index a stands for perm[a]."""
    size = n * n

    def old(k):
        return perm[k // n] * n + perm[k % n]

    return [[rows[old(r)][old(c)] for c in range(size)] for r in range(size)]


def document(n, names, perm=None):
    """A GL_q(n) plane document, in the basis permuted by perm if given."""
    rows = frt_matrix(n)
    if perm is not None:
        rows = permute_matrix(rows, n, perm)
    basis = "perm" + "".join(str(p) for p in perm) if perm else "std"
    doc = {
        "name": f"glq{n}-{basis}",
        "dimension": n,
        "generators": list(names),
        "family": "A",
        "r_matrix": rows,
        "eigenvalues": EIGENVALUES,
        "q": "generic",
        "gamma": "r_over_q",
    }
    return json.dumps(doc, indent=1), f"n={n} {basis} names={','.join(names)}"


def draw_document(rng, n):
    """A seeded GL_q(n) plane document and a one-line description of it.

    Half the documents use the standard basis, half a permutation that is
    not the identity.  Generator names are drawn from NAME_POOL, except
    that GL_q(2) in the standard basis keeps the paper's names x, y: with
    any other names `verify` exits 2 on it (defect (b) in NOTES.md, probed
    by run.py on every glq-ingest run).
    """
    names = rng.sample(NAME_POOL, n)
    perm = list(range(n))
    permuted = rng.random() < 0.5
    if permuted:
        while perm == sorted(perm):
            rng.shuffle(perm)
        return document(n, names, perm)
    if n == 2:
        names = STANDARD_GL2_NAMES
    return document(n, names)
