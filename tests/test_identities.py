import json
import math

import numpy as np
import pytest

import sphereflow.identities as identities
import sphereflow.symfunc as symfunc
from sphereflow.identities import (
    CheckResult,
    cone_boundary_shift,
    run_identity_suite,
    sample_cone,
    sample_spread,
)
from sphereflow.symfunc import _pinch_deficits, sigma_table

import oracles


def test_small_suite_passes():
    report = run_identity_suite(n_max=3, samples=400, seed=5)
    assert report.passed
    assert report.n_max == 3 and report.samples == 400
    # every check contributes a printable line with a verdict tag
    lines = report.lines()
    assert len(lines) == len(report.checks) > 20
    assert all(line.endswith("PASS") for line in lines)


def test_suite_rejects_bad_nmax():
    with pytest.raises(ValueError):
        run_identity_suite(n_max=1, samples=10)


@pytest.mark.parametrize("samples", [0, -3])
def test_suite_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match=f"samples >= 1, got {samples}"):
        run_identity_suite(n_max=2, samples=samples)


def test_suite_json_is_deterministic():
    a = run_identity_suite(n_max=2, samples=200, seed=9).to_json()
    b = run_identity_suite(n_max=2, samples=200, seed=9).to_json()
    # the NaN worst of a check without samples makes a plain dict == false
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["passed"] is True
    assert a["seed"] == 9
    assert {"name", "worst", "tolerance", "passed"} <= set(a["checks"][0])


def test_sample_cone_members():
    rng = np.random.default_rng(1)
    vals = sample_cone(rng, 300, 5, 3)
    assert vals.shape == (300, 5)
    assert all(oracles.sigma_subsets(row, m) > 0.0 for row in vals for m in (1, 2, 3))
    # scale spread actually covers about a decade each way
    norms = np.max(np.abs(vals), axis=1)
    assert norms.max() / norms.min() > 10.0


class _RecordingRng:
    """A generator that records the size of every uniform draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        return self._rng.uniform(low, high, size=size)


def _cone_rows(rng, n):
    # the curvature-vector draws; the (count, 1) scale draw is not one
    return [size[0] for size in rng.sizes if size[1] == n]


@pytest.mark.parametrize("n, k", [(2, 1), (5, 3), (8, 1), (8, 7), (8, 8)])
def test_sample_cone_rounds_stay_within_four_times_count(n, k):
    for count in (1, 37, 2000):
        rng = _RecordingRng(n + k)
        vals = sample_cone(rng, count, n, k)
        assert vals.shape == (count, n)
        assert np.all(sigma_table(vals, k)[:, 1:] > 0.0)
        assert max(_cone_rows(rng, n)) <= 4 * count


def test_sample_cone_top_cone_draws_little_more_than_it_keeps():
    # for k = n the box edge is clipped to 0, where nearly every row is kept
    rng = _RecordingRng(8)
    sample_cone(rng, 10000, 8, 8)
    assert sum(_cone_rows(rng, 8)) <= 1.3 * 10000


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("count", [300, 10000])
@pytest.mark.parametrize("n, k", [(8, 7), (8, 8), (4, 2)])
def test_blocked_sample_cone_matches_whole_draw(n, k, count, seed):
    got = sample_cone(np.random.default_rng(seed), count, n, k)
    want = oracles.sample_cone_whole_draw(np.random.default_rng(seed), count, n, k)
    assert np.array_equal(got, want)


def _gathered_exclusion_worsts(vals, table):
    """The recurrence check's three worst values from every single-exclusion table at
    once, summed over the leading axis: the check as it was first written."""
    samples, n = vals.shape
    excl, cols = oracles.excl_tables_delete(vals, n - 1).T, np.ascontiguousarray(vals.T)
    cond, signed = table.T.copy(), np.any(cols < 0.0, axis=0)
    cond[:, signed] = sigma_table(np.abs(vals[signed]), n).T
    worst = [0.0, 0.0, 0.0]
    for k in range(1, n + 1):
        ek = excl[k] if k <= n - 1 else np.zeros((1, samples))
        terms = cols * excl[k - 1]
        for j, (lhs, rhs, scale) in enumerate((
                (table.T[k], ek + terms, cond[k]),
                (terms.sum(axis=0), k * table.T[k], np.abs(terms).sum(axis=0)),
                (ek.sum(axis=0), (n - k) * table.T[k], np.abs(ek).sum(axis=0)))):
            denom = np.maximum(np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                                          np.abs(scale)), 1.0e-300)
            worst[j] = max(worst[j], float(np.max(np.abs(lhs - rhs) / denom)))
    return worst


@pytest.mark.parametrize("n", range(2, 9))
def test_streamed_exclusion_recurrence_is_bit_identical(n):
    """The check walks one exclusion table at a time and adds the sums over i in index
    order, so its worst values are those of the gathered tables bit for bit."""
    vals = sample_spread(np.random.default_rng(n), 300, n)
    table = sigma_table(vals, n)
    checks = identities._check_exclusion_recurrence(vals, table)
    assert [c.worst for c in checks] == _gathered_exclusion_worsts(vals, table)


def test_exclusion_recurrence_is_measured_against_sigma_of_the_moduli():
    """A valid draw whose row 6751 has sigma_1 = 1.6e-7 against sum |lam| =
    0.69: measured against sigma_k and the recurrence's own terms, its
    round-off read 2.06e-12, above the tolerance."""
    vals = sample_spread(np.random.default_rng(10025), 10000, 7)
    check = identities._check_exclusion_recurrence(vals, sigma_table(vals, 7))[0]
    assert check.name == "exclusion-recurrence"
    assert check.passed and check.worst < 1e-14


def test_exclusion_recurrence_fails_on_a_doctored_table(monkeypatch):
    """One exclusion entry moved by 1e-10 sigma_k(|lam|) fails the recurrence."""
    vals = sample_spread(np.random.default_rng(4), 300, 5)
    row, i, k = 17, 2, 3
    real = identities._exclusion_walk

    def doctored(cols, r, mmax):
        # the walk yields the table of each sample less entry j, curvature-first
        for j, t_j in enumerate(real(cols, r, mmax)):
            if j == i:
                t_j[k, row] += 1e-10 * sigma_table(np.abs(cols.T), k)[row, k]
            yield t_j

    monkeypatch.setattr(identities, "_exclusion_walk", doctored)
    check = identities._check_exclusion_recurrence(vals, sigma_table(vals, 5))[0]
    assert check.name == "exclusion-recurrence"
    assert check.worst >= 0.99e-10 and not check.passed


def test_sample_spread_mixes_signs():
    rng = np.random.default_rng(2)
    vals = sample_spread(rng, 500, 4)
    assert vals.shape == (500, 4)
    assert np.any(vals < 0.0) and np.any(vals > 0.0)


def test_cone_boundary_shift_zeroes_next_sigma():
    rng = np.random.default_rng(3)
    vals = sample_cone(rng, 200, 4, 2)
    shifted = cone_boundary_shift(vals, 2)
    s3 = sigma_table(shifted, 3)[:, 3]
    scale = np.abs(sigma_table(np.abs(shifted), 3)[:, 3]) + 1.0
    assert float(np.max(np.abs(s3) / scale)) < 1e-13
    # entries other than the adjusted one are untouched
    assert np.array_equal(shifted[:, :-1], vals[:, :-1])


def test_boundary_shift_row_formula():
    lam = np.array([[1.0, 2.0, 3.0, 4.0]])
    out = cone_boundary_shift(lam, 1)[0]
    assert sigma_table(out, 2)[..., 2] == pytest.approx(0.0, abs=1e-14)


def test_deviation_rule_passes_at_the_tolerance_and_fails_on_nan():
    tol = 1e-12
    assert CheckResult.deviation("c", 2, "", 1, tol, tol).passed is True
    assert CheckResult.deviation("c", 2, "", 1, 2 * tol, tol).passed is False
    assert CheckResult.deviation("c", 2, "", 1, math.nan, tol).passed is False


def test_lower_bound_rule_fails_at_minus_the_tolerance_and_on_nan():
    tol = 1e-12
    assert CheckResult.lower_bound("c", 2, "", 1, -0.5 * tol, tol).passed is True
    assert CheckResult.lower_bound("c", 2, "", 1, -tol, tol).passed is False
    assert CheckResult.lower_bound("c", 2, "", 1, math.nan, tol).passed is False
    # a zero tolerance asks for a strictly positive worst value
    assert CheckResult.lower_bound("c", 2, "", 1, 0.0, 0.0).passed is False


def test_exclusion_chain_needs_a_positive_leading_exclusion():
    def chain(rows):
        checks = {c.name: c for c in identities._check_sorted_chain(rows, sigma_table(rows, 3), 2)}
        return checks["ordered-exclusion-chain"]

    # sigma_1(lam|i) = -1.1, 0.4, 0.5 increases, but starts negative
    bad = chain(np.array([[1.0, -0.5, -0.6]]))
    assert bad.worst > 0.0 and not bad.passed
    assert chain(np.array([[1.0, 0.5, 0.25]])).passed


def test_pinch_comparability_passes_when_no_sample_is_kept():
    # equal entries have pinch 0, so the ratio keeps no sample
    rows = np.ones((4, 3))
    table = sigma_table(rows, 3)
    parts = _pinch_deficits(rows, table)
    for m in (1, 2):
        checks = {c.name: c for c in identities._check_pinch_deficit(rows, table, parts, m)}
        comparability = checks["deficit-pinch-comparability"]
        assert math.isnan(comparability.worst) and comparability.samples == 0
        assert comparability.passed and comparability.recorded == {}


def test_suite_draws_each_cone_once(monkeypatch):
    cones, spreads = [], []

    def cone(rng, count, n, k):
        cones.append((n, k))
        return sample_cone(rng, count, n, k)

    def spread(rng, count, n):
        spreads.append(n)
        return sample_spread(rng, count, n)

    monkeypatch.setattr(identities, "sample_cone", cone)
    monkeypatch.setattr(identities, "sample_spread", spread)
    report = run_identity_suite(n_max=4, samples=200)
    assert report.passed
    # Gamma_0 ... Gamma_n once per n, and one spread sample per n
    assert sorted(cones) == [(n, k) for n in range(2, 5) for k in range(n + 1)]
    assert spreads == [2, 3, 4]


def _rows_seen(inputs, rows) -> int:
    """How often the rows of rows occur among those of inputs, leaving out
    inputs whose rows are all sorted descending: the sorted-chain and pinch
    checks' copies, which share a row with a cone only where it was sorted."""
    keys = {row.tobytes() for row in rows}
    return sum(row.tobytes() in keys for lam in inputs
               if not np.all(np.diff(lam, axis=-1) <= 0.0) for row in lam)


def test_suite_builds_each_table_once_per_row_set(monkeypatch):
    cones, spreads, walks, tables, closures = {}, [], {1: [], 2: []}, [], []
    real_walk, real_table = symfunc._exclusion_walk, symfunc.sigma_table
    real_gaps = identities._check_quotient_gaps

    def cone(rng, count, n, k):
        cones[n, k] = sample_cone(rng, count, n, k)
        return cones[n, k]

    def spread(rng, count, n):
        spreads.append(sample_spread(rng, count, n))
        return spreads[-1]

    def walk(cols, r, mmax):
        # the walk takes the rows' curvature-first transpose: record the rows
        walks[r].append(np.array(cols.T))
        return real_walk(cols, r, mmax)

    def table(lam, mmax):
        tables.append(np.array(lam))
        return real_table(lam, mmax)

    def gaps(gap, outer, inner_trace, k):
        before = len(tables)
        out = real_gaps(gap, outer, inner_trace, k)
        # two tables: the boundary shift's own, of outer less its last entry, and
        # one of the closure rows, for their membership test and their quotient
        rest, closure = tables[before:]
        assert np.array_equal(rest, outer[:, :-1]) and np.array_equal(closure[:, :-1], rest)
        closures.append(closure)
        return out

    monkeypatch.setattr(identities, "_check_quotient_gaps", gaps)
    monkeypatch.setattr(identities, "sample_cone", cone)
    monkeypatch.setattr(identities, "sample_spread", spread)
    for module in (identities, symfunc):
        monkeypatch.setattr(module, "_exclusion_walk", walk)
        monkeypatch.setattr(module, "sigma_table", table)
    assert run_identity_suite(n_max=4, samples=200).passed
    assert len(closures) == 2 + 3 + 4  # one gap check per n and order k < n
    # one pair walk per n, on Gamma_n sorted descending, for every deficit order
    assert [lam.shape[-1] for lam in walks[2]] == [2, 3, 4]
    for n in range(2, 5):
        ranked = -np.sort(-cones[n, n], axis=1)
        assert np.array_equal(walks[2][n - 2], ranked)
        # one table of those rows, for the last sorted-chain check and the deficits
        assert sum(np.array_equal(lam, ranked) for lam in tables) == 1
    # each row of a cone or spread sample is walked once and tabulated once,
    # for every quotient order and check that reads it
    for rows in (*cones.values(), *spreads):
        assert _rows_seen(walks[1], rows) == len(rows)
        assert _rows_seen(tables, rows) == len(rows)
