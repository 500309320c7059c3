"""Seeded fuzzing of the command line with hostile plane documents and
element strings.

Every input goes through `cli.main` in this process.  It must end with exit
0, 1 or 2, raise no exception from outside qplane's own error types (which
`main` turns into exit 2), and stay within a time budget.  The draw is fixed
by its seed, so a failure names an input that reproduces.

Element strings are either random runs of at most 8 tokens or small
grammatical expressions with powers of 2 or 3.  The cost of high powers
within the degree cap is not bounded yet (`(x+y)^16` on gl2 takes about a
minute), so this test does not cover it.
"""

import copy
import json
import random
import time

from qplane import planes
from qplane.cli import main

SEED = 20261018
BUDGET_S = 2.0

VALUES = [None, True, 0, -1, 7, 1.5, "", "q", "x*y", "((", [], [1], ["x"],
          [[1]], {}, {"a": 1}, "1" * 40]
SCALAR_TOKENS = ["q", "s", "i", "rho", "1", "2", "0", "-", "+", "*", "/",
                 "^", "(", ")", " ", "q^-1", "1/2", "^-"]
ELEMENT_TOKENS = SCALAR_TOKENS + ["x", "y", "d(", "D(", "x)", "y)", "z",
                                  "d(x)", "D(y)", "x+", "^2", "^3"]


def base_documents():
    gl2 = json.loads(planes.serialize_plane(planes.builtin_plane("gl2")))
    gamma = copy.deepcopy(gl2)
    gamma["gamma"] = [["s^-2 * (" + e + ")" for e in row]
                      for row in gl2["r_matrix"]]
    return [gl2, gamma]


def containers(node, path=()):
    """Every (path, container) pair of a JSON tree, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from containers(child, path + (key,))


def mutate(doc, rng):
    """``doc`` with one type swap, removal, extra key or size change."""
    doc = copy.deepcopy(doc)
    _, node = rng.choice(list(containers(doc)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = rng.choice(["swap", "remove", "extra", "resize", "scalar"])
    if op == "extra" or not keys:
        if isinstance(node, dict):
            node[rng.choice(["extra", "lambda3", "central", "r_matrix"])] = \
                rng.choice(VALUES)
        else:
            node.append(rng.choice(VALUES))
        return doc
    key = rng.choice(keys)
    if op == "swap":
        node[key] = rng.choice(VALUES)
    elif op == "remove":
        del node[key]
    elif op == "resize" and isinstance(node[key], list) and node[key]:
        if rng.random() < 0.5:
            node[key].pop()
        else:
            node[key].append(copy.deepcopy(node[key][-1]))
    else:
        node[key] = random_text(rng, SCALAR_TOKENS, 6)
    return doc


def random_text(rng, tokens, max_tokens):
    return "".join(rng.choice(tokens)
                   for _ in range(rng.randint(0, max_tokens)))


def random_element(rng, names, depth=2):
    """A grammatical element in the generator ``names``: sums, products and
    powers of generators, differentials, derivatives and scalars."""
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(names)
        return rng.choice([name, f"d({name})", f"D({name})",
                           random_text(rng, SCALAR_TOKENS[:5], 2) or "1"])
    left = random_element(rng, names, depth - 1)
    op = rng.choice(["+", "-", "*", "^"])
    if op == "^":
        return f"({left})^{rng.choice([2, 3])}"
    return f"({left}) {op} {random_element(rng, names, depth - 1)}"


def run_budgeted(argv, label):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (label, code)
    assert elapsed < BUDGET_S, (label, elapsed)


def test_fuzz_documents_and_elements(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "plane.json"
    docs = base_documents()
    for k in range(120):
        doc = mutate(rng.choice(docs), rng)
        if rng.random() < 0.3:
            doc = mutate(doc, rng)
        text = json.dumps(doc)
        path.write_text(text, encoding="utf-8")
        run_budgeted(["verify", "--plane", str(path), "--suite", "ybe"],
                     f"document {k}: {text}")
    names = {"gl2": ["x", "y"], "orth3": ["x+", "x0", "x-"]}
    names["sphere_qm1"] = names["orth3"]
    for k in range(300):
        plane = rng.choice(sorted(names))
        if k % 3 == 0:
            text = random_element(rng, names[plane])
        else:
            tokens = ELEMENT_TOKENS if k % 3 == 1 else SCALAR_TOKENS
            text = random_text(rng, tokens, 8)
        run_budgeted(["nf", "--plane", plane, "--", text],
                     f"nf {plane} {text!r}")
