import gc

import numpy as np
import pytest

from sphereflow import ConeViolation, identity_quotient, quotient, quotient_trace_gaps
from sphereflow.symfunc import (
    _exclusion_tables,
    _pinch_deficits,
    _quotients,
    quotient_two_value,
    sigma_table,
    sigma_two_value,
)

import oracles

# hand-computed on lam = (0.7, 1.3, 2.1, 0.4)
LAM4 = np.array([0.7, 1.3, 2.1, 0.4])
SIGMA4 = {0: 1.0, 1: 4.5, 2: 6.75, 3: 3.955, 4: 0.7644}
GRAD4_K1 = np.array([10.35, 7.65, 4.05, 11.7]) / 20.25


def test_sigma_frozen_values():
    for m, want in SIGMA4.items():
        assert sigma_table(LAM4, m)[..., m] == pytest.approx(want, abs=1e-14)


def test_sigma_against_subset_enumeration():
    rng = np.random.default_rng(42)
    for n in range(2, 8):
        vals = rng.uniform(-2.0, 2.0, size=(200, n))
        for m in range(n + 1):
            got = sigma_table(vals, m)[..., m]
            for i in range(0, 200, 17):
                want = oracles.sigma_subsets(vals[i], m)
                scale = max(1.0, oracles.sigma_subsets(np.abs(vals[i]), m))
                assert abs(got[i] - want) <= 1e-12 * scale


def test_sigma_against_charpoly():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.1, 3.0, size=(50, 6))
    for m in range(7):
        got = sigma_table(vals, m)[..., m]
        want = np.array([oracles.sigma_charpoly(v, m) for v in vals])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_sigma_table_matches_single_indices():
    rng = np.random.default_rng(1)
    vals = rng.uniform(-1.0, 2.0, size=(40, 5))
    table = sigma_table(vals, 5)
    # row m does not depend on how far the table runs
    for m in range(6):
        assert np.array_equal(table[:, m], sigma_table(vals, m)[:, m])


def test_sigma_index_range():
    with pytest.raises(ValueError, match="mmax must be nonnegative"):
        sigma_table(LAM4, -1)
    # sigma_m = 0 for m > n
    assert sigma_table(LAM4, 6)[5:].tolist() == [0.0, 0.0]


def test_exclusion_recurrence_spot():
    # sigma_m = sigma_m(lam|i) + lam_i sigma_{m-1}(lam|i)
    for m in range(1, 5):
        for i in range(4):
            lhs = SIGMA4[m]
            rhs = (oracles.sigma_excluding(LAM4, m, [i])
                   + LAM4[i] * oracles.sigma_excluding(LAM4, m - 1, [i]))
            assert lhs == pytest.approx(rhs, abs=1e-14)


def test_quotient_frozen_gradient():
    value, grad, trace, weighted = quotient(LAM4, 1)
    assert value == pytest.approx(1.5, abs=1e-14)
    assert np.allclose(grad, GRAD4_K1, atol=1e-14)
    assert trace == pytest.approx(GRAD4_K1.sum(), abs=1e-14)
    assert weighted == pytest.approx((GRAD4_K1 * LAM4**2).sum(), abs=1e-14)
    assert identity_quotient(LAM4.size, 1) == pytest.approx(1.5)


def test_quotient_gradient_against_fd():
    rng = np.random.default_rng(12)
    for n, k in ((3, 1), (4, 2), (5, 3), (6, 1)):
        for _ in range(20):
            lam = rng.uniform(0.2, 2.0, size=n)
            fd = oracles.quotient_grad_fd(lam, k)
            assert np.allclose(quotient(lam, k)[1], fd, rtol=2e-6, atol=2e-7)


def test_quotient_requires_positive_sigma_k():
    with pytest.raises(ConeViolation):
        quotient(np.array([1.0, -1.0, -1.0]), 2)


def test_identity_quotient_is_value_at_ones():
    for n in range(2, 9):
        for k in range(0, n):
            table = sigma_table(np.ones(n), k + 1)
            assert identity_quotient(n, k) == pytest.approx(
                table[k + 1] / table[k], abs=1e-14)


def test_two_value_closed_forms():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        a = rng.uniform(0.3, 2.0, size=8)
        b = rng.uniform(0.3, 2.0, size=8)
        full = np.concatenate([a[:, None], np.repeat(b[:, None], n - 1, axis=1)], axis=1)
        for m in range(n + 1):
            assert np.allclose(sigma_two_value(a, b, n, m), sigma_table(full, m)[..., m],
                               rtol=1e-12, atol=1e-13)
        for k in range(0, n):
            f, f1, f2, tr, wt = quotient_two_value(a, b, n, k)
            value, grad, trace, weighted = quotient(full, k)
            for i in range(8):
                assert f[i] == pytest.approx(value[i], rel=1e-12)
                assert f1[i] == pytest.approx(grad[i, 0], rel=1e-11, abs=1e-13)
                if n > 1:
                    assert f2[i] == pytest.approx(grad[i, 1], rel=1e-11, abs=1e-13)
                assert tr[i] == pytest.approx(trace[i], rel=1e-11)
                assert wt[i] == pytest.approx(weighted[i], rel=1e-11)


def test_two_value_cone_violation_reports_node():
    a = np.array([1.0, -5.0])
    b = np.array([1.0, 0.1])
    with pytest.raises(ConeViolation) as err:
        quotient_two_value(a, b, 3, 1)
    assert "node 1" in str(err.value)


def test_quotient_trace_gaps_bounds():
    rng = np.random.default_rng(21)
    for n, k in ((3, 1), (5, 2), (6, 4)):
        lam = rng.uniform(0.1, 2.5, size=(200, n))
        keep = np.all(sigma_table(lam, min(k + 1, n))[:, 1:] > 0.0, axis=1)
        g1, g2, weighted = quotient_trace_gaps(lam[keep], k)
        assert np.all(g1 >= -1e-10)
        assert np.all(g2 >= -1e-10)
        # on the closed (k+1) cone the trace is also bounded above
        assert np.all(g2 + identity_quotient(n, k) <= n - k + 1e-10)
        assert weighted[0] == pytest.approx(quotient(lam[keep][0], k)[3], rel=1e-12)


def test_pinch_deficit_forms_agree():
    rng = np.random.default_rng(14)
    for n, m in ((3, 1), (4, 2), (6, 3)):
        lam = rng.uniform(0.1, 3.0, size=(100, n))
        deficits, pair_sums, pinch = _pinch_deficits(lam, sigma_table(lam, n))
        deficit, pair_sum = deficits[:, m - 1], pair_sums[:, m - 1]
        scale = np.maximum(1.0, np.abs(deficit))
        assert np.max(np.abs(deficit - pair_sum) / scale) <= 1e-12
        assert np.all(pinch >= 0.0)
    lam = np.array([2.0, 2.0, 2.0])
    d, _, pinch = _pinch_deficits(lam, sigma_table(lam, 3))
    assert d[0] == pytest.approx(0.0, abs=1e-13)
    assert pinch == 0.0



def _batches(n):
    """Seeded positive batches with one and with two leading axes."""
    rng = np.random.default_rng(100 + n)
    return rng.uniform(0.05, 2.0, size=(300, n)), rng.uniform(0.05, 2.0, size=(3, 5, n))


@pytest.mark.parametrize("n", range(2, 9))
def test_sigma_table_in_place_update_is_bit_identical(n):
    rng = np.random.default_rng(n)
    for vals in (rng.standard_normal((300, n)), rng.standard_normal((3, 5, n)),
                 rng.standard_normal(n)):
        for mmax in range(n + 2):
            assert np.array_equal(sigma_table(vals, mmax),
                                  oracles.sigma_table_temporaries(vals, mmax))


@pytest.mark.parametrize("n", range(2, 9))
def test_gathered_quotient_gradient_is_bit_identical(n):
    # the last vals is a single vector, with no leading axis at all
    for vals in (*_batches(n), _batches(n)[0][0]):
        for k in range(n):
            # one table and one walk serve the orders k and k + 1
            orders = range(k, min(k + 2, n))
            quots = _quotients(vals, sigma_table(vals, min(k + 3, n)), orders)
            for order, quot in zip(orders, quots, strict=True):
                assert np.array_equal(quot[1], oracles.quotient_grad_delete(vals, order))
            assert np.array_equal(quotient(vals, k)[1], oracles.quotient_grad_delete(vals, k))


@pytest.mark.parametrize("n", range(2, 9))
def test_gathered_pair_sum_is_bit_identical(n):
    # n = 2 drops both entries of every pair: each excluded vector is empty
    for vals in (*_batches(n), _batches(n)[0][0]):
        deficits, pair_sums, _ = _pinch_deficits(vals, sigma_table(vals, n))
        # every order from one pair walk
        for m in range(1, n):
            assert np.array_equal(pair_sums[..., m - 1], oracles.pair_sum_delete(vals, m))
            assert np.array_equal(deficits[..., m - 1], oracles.deficit_own_table(vals, m))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", range(2, 9))
def test_exclusion_walk_is_bit_identical(n, r):
    # n = 2, r = 2 drops both entries: the one kept vector is empty
    rng = np.random.default_rng(10 * n + r)
    for vals in (rng.standard_normal((300, n)), rng.standard_normal((3, 5, n)),
                 rng.standard_normal(n)):
        for mmax in range(n + 2):
            pairs = zip(_exclusion_tables(vals, r, mmax),
                        oracles.exclusion_tables_delete(vals, r, mmax), strict=True)
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.array_equal(got, want)


def test_exclusion_walk_leaves_no_reference_cycle():
    vals = np.random.default_rng(0).standard_normal((50, 6))
    gc.collect()
    gc.disable()
    try:
        for r in (1, 2):
            for _ in _exclusion_tables(vals, r, 4):
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()
