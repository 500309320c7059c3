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


@pytest.fixture
def glq3_document():
    """A GL_q(3) plane document: no transcribed relation table applies."""
    return {"name": "glq3", "dimension": 3, "generators": ["a", "b", "c"],
            "family": "A", "r_matrix": frt_gl_matrix(3), "q": "generic",
            "gamma": "r_over_q"}
