"""Tests for the pattern text I/O."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sparse import SparsePattern, grid_2d, load_pattern, save_pattern


def test_rbp_roundtrip(tmp_path):
    g = grid_2d(6, 5)
    path = tmp_path / "grid.rbp"
    save_pattern(g, path)
    back = load_pattern(path)
    assert back.n == g.n
    assert back.nnz == g.nnz
    assert back.symmetric == g.symmetric


def test_rbp_roundtrip_unsymmetric(tmp_path):
    p = SparsePattern.from_coo(4, [0, 1, 3], [2, 3, 0], symmetric=False, name="uns")
    path = tmp_path / "u.rbp"
    save_pattern(p, path)
    back = load_pattern(path)
    assert not back.symmetric
    assert back.nnz == 3
    assert back.name == "uns"


def test_matrixmarket_pattern(tmp_path):
    text = """%%MatrixMarket matrix coordinate pattern symmetric
% comment line
3 3 3
1 1
2 1
3 2
"""
    path = tmp_path / "mm.mtx"
    path.write_text(text)
    p = load_pattern(path)
    assert p.n == 3
    # symmetric storage: (2,1) implies (1,2)
    assert 1 in p.row(0)


def test_matrixmarket_rejects_rectangular(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n")
    with pytest.raises(ValueError):
        load_pattern(path)


def test_load_rejects_unknown_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello world\n1 1\n")
    with pytest.raises(ValueError):
        load_pattern(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        load_pattern(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("%%RBP p SYM\n4 6\n0 1\n1 2\n", ":4:"),  # 2 of 6 declared entries
        ("%%RBP p SYM\n", ":2:"),  # no count line
        ("%%RBP p SYM\n4\n", ":2:"),
        ("%%RBP p SYM\n4 2\n0 1\n2\n", ":4:"),  # entry without a column
        ("%%RBP p SYM\n4 2\n0 1\n1 x\n", ":4:"),
        ("%%RBP p SYM\n4 1\n0 4\n", ":3:"),  # coordinate out of range
        ("%%RBP p SYM\n4 1\n0 1\n2 3\n", ":4:"),  # more entries than declared
        ("%%RBP p SYM\n4 -1\n", ":2:"),
        ("%%MatrixMarket matrix coordinate pattern general\n% c\n3 3 3\n1 1\n", ":4:"),
        ("%%MatrixMarket matrix coordinate pattern general\n% only a comment\n", ":3:"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", ":3:"),  # value missing
        ("%%MatrixMarket matrix array real general\n2 2\n", ":1:"),
    ],
)
def test_malformed_file_names_file_and_line(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.txt{line}"):
        load_pattern(path)


def test_matrixmarket_real_values_accepted(tmp_path):
    path = tmp_path / "real.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.5\n2 1 -3e2\n")
    assert load_pattern(path).nnz == 2


@st.composite
def patterns(draw) -> SparsePattern:
    n = draw(st.integers(min_value=1, max_value=12))
    coords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    name = draw(st.text(alphabet="abcXYZ_09-", min_size=1, max_size=8))
    rows = [r for r, _ in coords]
    cols = [c for _, c in coords]
    return SparsePattern.from_coo(n, rows, cols, symmetric=draw(st.booleans()), name=name)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pattern=patterns())
def test_property_save_load_roundtrip_and_every_cut_is_rejected(tmp_path, pattern):
    path = tmp_path / "p.rbp"
    save_pattern(pattern, path)
    back = load_pattern(path)
    assert back == pattern and back.name == pattern.name
    lines = path.read_text().splitlines(keepends=True)
    for keep in range(len(lines)):
        cut = tmp_path / f"cut-{keep}.rbp"
        cut.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError, match=cut.name):
            load_pattern(cut)
        cut.unlink()
