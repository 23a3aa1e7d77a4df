"""Tests for the frontal-matrix entry and flop models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flops import (
    assembly_flops,
    cb_entries,
    factor_entries,
    front_entries,
    master_entries,
    partial_factorization_flops,
    type2_master_flops,
    type2_slave_block_coefficients,
    type2_slave_block_entries,
    type2_slave_factor_entries,
    type2_slave_flops,
    type2_slave_row_flops,
)


def brute_force_flops(npiv, nfront, symmetric):
    total = 0
    for k in range(1, npiv + 1):
        r = nfront - k
        if symmetric:
            total += r + r * (r + 1)
        else:
            total += r + 2 * r * r
    return float(total)


def brute_force_master_flops(npiv, nfront, symmetric):
    """Step ``k`` works on ``a = npiv - k`` pivot rows of length ``b = nfront - k``."""
    total = 0
    for k in range(1, npiv + 1):
        a, b = npiv - k, nfront - k
        total += a + (1 if symmetric else 2) * a * b
    return float(total)


def brute_force_slave_row_flops(npiv, nfront, symmetric):
    """One CB row receives a pivot row of length ``nfront - k`` at step ``k``."""
    return sum((1 if symmetric else 2) * (nfront - k) for k in range(1, npiv + 1))


def brute_force_entries(npiv, nfront, symmetric, keep):
    """Stored cells ``(i, j)`` of the front (lower triangle when symmetric)
    for which ``keep(i, j)`` holds."""
    return sum(
        1 for i in range(nfront) for j in range(i + 1 if symmetric else nfront) if keep(i, j)
    )


class TestEntryCounts:
    def test_front_entries(self):
        assert front_entries(4, True) == 10
        assert front_entries(4, False) == 16
        assert front_entries(0, True) == 0

    def test_factor_plus_cb_equals_front(self):
        for sym in (True, False):
            for npiv, nfront in [(1, 1), (2, 5), (5, 5), (3, 10)]:
                assert factor_entries(npiv, nfront, sym) + cb_entries(npiv, nfront, sym) == front_entries(
                    nfront, sym
                )

    def test_cb_zero_when_fully_summed(self):
        assert cb_entries(6, 6, True) == 0
        assert cb_entries(6, 6, False) == 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            factor_entries(5, 3, True)
        with pytest.raises(ValueError):
            cb_entries(-1, 3, True)
        with pytest.raises(ValueError):
            front_entries(-1, True)


class TestFlops:
    @pytest.mark.parametrize("sym", [True, False])
    @pytest.mark.parametrize("npiv,nfront", [(1, 1), (1, 10), (4, 10), (10, 10), (7, 23)])
    def test_matches_brute_force(self, sym, npiv, nfront):
        assert partial_factorization_flops(npiv, nfront, sym) == pytest.approx(
            brute_force_flops(npiv, nfront, sym)
        )

    def test_unsym_costs_more_than_sym(self):
        assert partial_factorization_flops(5, 20, False) > partial_factorization_flops(5, 20, True)

    def test_zero_pivots(self):
        assert partial_factorization_flops(0, 10, True) == 0.0

    def test_assembly_flops(self):
        assert assembly_flops([3, 4, 5]) == 12.0
        assert assembly_flops([]) == 0.0


class TestType2Split:
    @pytest.mark.parametrize("sym", [True, False])
    def test_slave_factor_pieces_sum_to_l_block(self, sym):
        npiv, nfront = 6, 20
        ncb = nfront - npiv
        assert type2_slave_factor_entries(npiv, nfront, ncb, sym) == ncb * npiv

    def test_slave_block_entries_unsym(self):
        assert type2_slave_block_entries(4, 10, 3, False) == 30

    def test_slave_block_entries_sym_bounds(self):
        npiv, nfront, rows = 4, 10, 3
        block = type2_slave_block_entries(npiv, nfront, rows, True)
        # at least the factor part, at most full rows
        assert rows * npiv <= block <= rows * nfront

    def test_slave_rows_bounds_checked(self):
        with pytest.raises(ValueError):
            type2_slave_flops(4, 10, 7, True)
        with pytest.raises(ValueError):
            type2_slave_block_entries(4, 10, -1, True)

    def test_master_flops_less_than_full_factorization(self):
        for sym in (True, False):
            assert type2_master_flops(6, 30, sym) < partial_factorization_flops(6, 30, sym)

    def test_master_plus_slaves_close_to_total(self):
        """The distributed work must roughly add up to the sequential work."""
        npiv, nfront = 10, 50
        for sym in (True, False):
            total = partial_factorization_flops(npiv, nfront, sym)
            distributed = type2_master_flops(npiv, nfront, sym) + type2_slave_flops(
                npiv, nfront, nfront - npiv, sym
            )
            assert distributed == pytest.approx(total, rel=0.35)

    def test_slave_flops_linear_in_rows(self):
        one = type2_slave_flops(5, 30, 1, False)
        ten = type2_slave_flops(5, 30, 10, False)
        assert ten == pytest.approx(10 * one)


@settings(max_examples=50, deadline=None)
@given(
    npiv=st.integers(min_value=0, max_value=40),
    extra=st.integers(min_value=0, max_value=40),
    sym=st.booleans(),
)
def test_property_flops_match_brute_force(npiv, extra, sym):
    nfront = npiv + extra
    assert partial_factorization_flops(npiv, nfront, sym) == pytest.approx(
        brute_force_flops(npiv, nfront, sym)
    )


@settings(max_examples=50, deadline=None)
@given(
    npiv=st.integers(min_value=1, max_value=30),
    extra=st.integers(min_value=0, max_value=30),
    sym=st.booleans(),
)
def test_property_entry_conservation(npiv, extra, sym):
    """factors + CB = front, and the type-2 split conserves the factor entries."""
    nfront = npiv + extra
    assert factor_entries(npiv, nfront, sym) + cb_entries(npiv, nfront, sym) == front_entries(nfront, sym)
    ncb = nfront - npiv
    master = master_entries(npiv, nfront, sym)
    assert master + type2_slave_factor_entries(npiv, nfront, ncb, sym) == factor_entries(npiv, nfront, sym)


@settings(max_examples=50, deadline=None)
@given(
    npiv=st.integers(min_value=1, max_value=25),
    extra=st.integers(min_value=1, max_value=25),
    sym=st.booleans(),
    data=st.data(),
)
def test_property_slave_blocks_partition_cb_rows(npiv, extra, sym, data):
    """Splitting the CB rows among slaves never loses or duplicates entries (unsym)."""
    nfront = npiv + extra
    ncb = extra
    k = data.draw(st.integers(min_value=1, max_value=min(4, ncb)))
    cuts = sorted(data.draw(st.lists(st.integers(0, ncb), min_size=k - 1, max_size=k - 1)))
    bounds = [0] + cuts + [ncb]
    rows = [bounds[i + 1] - bounds[i] for i in range(k)]
    if not sym:
        total = sum(type2_slave_block_entries(npiv, nfront, r, False) for r in rows)
        assert total == ncb * nfront
    # factor parts always partition exactly, symmetric or not
    total_factor = sum(type2_slave_factor_entries(npiv, nfront, r, sym) for r in rows)
    assert total_factor == ncb * npiv


@settings(max_examples=60, deadline=None)
@given(
    fronts=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=8
    ),
    sym=st.booleans(),
    data=st.data(),
)
def test_property_array_model_matches_scalar_and_brute_force(fronts, sym, data):
    """Every model function on int64 arrays ≡ its scalar value elementwise, and
    the scalar value ≡ its brute-force count, including npiv = nfront and
    1-pivot fronts."""
    fronts = fronts + [(fronts[0][0] + 1, 0), (1, fronts[0][1])]
    npiv = [p for p, _ in fronts]
    nfront = [p + extra for p, extra in fronts]
    nrows = [data.draw(st.integers(0, extra)) for _, extra in fronts]
    p_arr, f_arr, r_arr = (np.asarray(x, dtype=np.int64) for x in (npiv, nfront, nrows))

    models = [
        (lambda p, f, r: front_entries(f, sym),
         lambda p, f, r: brute_force_entries(p, f, sym, lambda i, j: True)),
        (lambda p, f, r: master_entries(p, f, sym),
         lambda p, f, r: brute_force_entries(p, f, sym, lambda i, j: i < p)),
        (lambda p, f, r: factor_entries(p, f, sym),
         lambda p, f, r: brute_force_entries(p, f, sym, lambda i, j: i < p or j < p)),
        (lambda p, f, r: cb_entries(p, f, sym),
         lambda p, f, r: brute_force_entries(p, f, sym, lambda i, j: i >= p and j >= p)),
        (lambda p, f, r: partial_factorization_flops(p, f, sym),
         lambda p, f, r: brute_force_flops(p, f, sym)),
        (lambda p, f, r: type2_master_flops(p, f, sym),
         lambda p, f, r: brute_force_master_flops(p, f, sym)),
        (lambda p, f, r: type2_slave_row_flops(p, f, sym),
         lambda p, f, r: brute_force_slave_row_flops(p, f, sym)),
        (lambda p, f, r: type2_slave_flops(p, f, r, sym),
         lambda p, f, r: float(r * brute_force_slave_row_flops(p, f, sym))),
        (lambda p, f, r: type2_slave_factor_entries(p, f, r, sym),
         lambda p, f, r: r * p),
        (lambda p, f, r: type2_slave_block_entries(p, f, r, sym), None),
    ]
    for model, brute in models:
        column = model(p_arr, f_arr, r_arr)
        assert isinstance(column, np.ndarray) and column.shape == p_arr.shape
        scalars = [model(p, f, r) for p, f, r in zip(npiv, nfront, nrows)]
        assert column.tolist() == scalars
        assert column.dtype == (np.float64 if isinstance(scalars[0], float) else np.int64)
        assert [type(x) for x in column.tolist()] == [type(x) for x in scalars]
        if brute is not None:
            assert scalars == [brute(p, f, r) for p, f, r in zip(npiv, nfront, nrows)]

    a, b = type2_slave_block_coefficients(p_arr, f_arr, sym)
    assert np.broadcast_to(a, p_arr.shape).tolist() == [
        type2_slave_block_coefficients(p, f, sym)[0] for p, f in zip(npiv, nfront)
    ]
    assert np.broadcast_to(b, p_arr.shape).tolist() == [
        type2_slave_block_coefficients(p, f, sym)[1] for p, f in zip(npiv, nfront)
    ]
