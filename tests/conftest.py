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
def glq_document():
    """``glq_document(n)``: a GL_q(n) plane document for n <= 4, with
    generators a, b, c, e; no transcribed relation table applies."""
    def make(n):
        return {"name": f"glq{n}", "dimension": n,
                "generators": list("abce"[:n]), "family": "A",
                "r_matrix": frt_gl_matrix(n), "q": "generic",
                "gamma": "r_over_q"}
    return make


@pytest.fixture
def glq3_document(glq_document):
    """A GL_q(3) plane document: no transcribed relation table applies."""
    return glq_document(3)
