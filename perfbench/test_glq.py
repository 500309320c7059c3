"""Tests of the GL_q(n) document generator (stdlib only).

    python3 perfbench/test_glq.py

Matrices are checked numerically at q = 3 with exact fractions, so the
checks do not depend on qplane; the last test loads the documents with it.
"""

import json
import os
import random
import sys
import unittest
from fractions import Fraction

import glq

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

Q = Fraction(3)
VALUES = {"0": Fraction(0), "1": Fraction(1), "q": Q, "q - q^-1": Q - 1 / Q}


def numeric(rows):
    return [[VALUES[e] for e in row] for row in rows]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def kron(a, b):
    return [[a[i // len(b)][j // len(b)] * b[i % len(b)][j % len(b)]
             for j in range(len(a) * len(b))]
            for i in range(len(a) * len(b))]


def identity(size):
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def permutation_matrix(perm):
    """P with P e_{perm[a]} = e_a: new basis vector a is old perm[a]."""
    n = len(perm)
    return [[Fraction(int(perm[a] == b)) for b in range(n)] for a in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


class FrtMatrixTest(unittest.TestCase):

    def test_n2_standard_basis_is_the_gl2_matrix(self):
        from qplane import fixtures
        self.assertEqual(glq.frt_matrix(2), fixtures.R_GL2)

    def test_braid_and_hecke_relations(self):
        for n in (2, 3):
            r = numeric(glq.frt_matrix(n))
            eye = identity(n)
            r12, r23 = kron(r, eye), kron(eye, r)
            self.assertEqual(matmul(matmul(r12, r23), r12),
                             matmul(matmul(r23, r12), r23))
            size = n * n
            shifted = [[r[i][j] - Q * (i == j) for j in range(size)]
                       for i in range(size)]
            plus = [[r[i][j] + (i == j) / Q for j in range(size)]
                    for i in range(size)]
            self.assertEqual(matmul(shifted, plus),
                             [[0] * size for _ in range(size)])

    def test_permuted_basis_is_the_p_tensor_p_conjugate(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                pp = kron(permutation_matrix(perm), permutation_matrix(perm))
                r = numeric(glq.frt_matrix(n))
                want = matmul(matmul(pp, r), transpose(pp))
                got = numeric(glq.permute_matrix(glq.frt_matrix(n), n, perm))
                self.assertEqual(got, want, (n, perm))


class DocumentTest(unittest.TestCase):

    def test_same_seed_same_documents(self):
        a = [glq.draw_document(random.Random(7), n) for n in (2, 3, 4)]
        b = [glq.draw_document(random.Random(7), n) for n in (2, 3, 4)]
        self.assertEqual(a, b)

    def test_permuted_documents_are_not_the_identity(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(40):
            text, desc = glq.draw_document(rng, 2)
            doc = json.loads(text)
            seen.add(doc["name"])
            if doc["name"] != "glq2-std":
                self.assertEqual(doc["r_matrix"],
                                 glq.permute_matrix(glq.frt_matrix(2), 2,
                                                    [1, 0]))
        self.assertEqual(seen, {"glq2-std", "glq2-perm10"})

    def test_standard_gl2_documents_keep_the_paper_names(self):
        rng = random.Random(13)
        for _ in range(20):
            doc = json.loads(glq.draw_document(rng, 2)[0])
            if doc["name"] == "glq2-std":
                self.assertEqual(doc["generators"], ["x", "y"])

    def test_documents_load_in_both_bases(self):
        from qplane import planes
        rng = random.Random(3)
        kinds = set()
        while kinds != {"std", "perm"}:
            text, desc = glq.draw_document(rng, 3)
            kinds.add("std" if "std" in desc else "perm")
            plane = planes.load_plane(text)
            self.assertEqual(plane.dimension, 3)


if __name__ == "__main__":
    unittest.main()
