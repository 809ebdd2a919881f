"""Randomized verification battery for the symmetric-function layer.

Every check evaluates an identity or inequality of the sigma calculus on
the sample rows it is given and records the worst deviation.  Only
run_identity_suite holds the generator: for each n, _dimension_checks draws
one spread sample and each cone Gamma_0 ... Gamma_n once.  Equalities are held to
1e-12 relative, quantities built from the curvature quotient to 1e-10,
inequalities to that slack against their natural scale.  The pinch
deficit's comparability constants are recorded; only positivity is asserted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .symfunc import (
    _exclusion_walk,
    _pinch_deficits,
    _quotients,
    _trace_gaps,
    quotient_trace_gaps,
    sigma_table,
)

__all__ = [
    "CheckResult",
    "SuiteReport",
    "sample_spread",
    "sample_cone",
    "cone_boundary_shift",
    "run_identity_suite",
]

_EQ_TOL = 1e-12
_QUOT_TOL = 1e-10
_CONE_EDGE = -0.35  # negative edge of sample_cone's first box
_BLOCK_ROWS = 8192  # rows per membership test in sample_cone: its tables fit in L2


def sample_spread(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Generic curvature vectors with a decade of scale spread."""
    vals = rng.standard_normal((count, n))
    return vals * 10.0 ** rng.uniform(-1.0, 1.0, size=(count, 1))


def sample_cone(rng: np.random.Generator, count: int, n: int, k: int) -> np.ndarray:
    """Rejection-sample strict members of the k-th cone.

    Draws from a box biased toward positive entries; if acceptance is poor
    the negative edge shrinks, which only concentrates the distribution
    deeper inside the cone.  A round draws 1.1x the rows still needed over
    the last round's acceptance (1 at first), at most 4 * count.  For k = n
    the edge is clipped to 0: the box meets the n-th cone exactly in the
    positive orthant, so the kept distribution is the same and nearly all
    rows pass.  Membership is tested on blocks of _BLOCK_ROWS rows, so each
    sigma table stays in cache; the kept rows are those of one whole-draw test.
    """
    out = []
    have = 0
    edge = 0.0 if k == n else _CONE_EDGE
    acceptance = 1.0
    for _ in range(60):
        size = min(4 * count, math.ceil(1.1 * (count - have) / acceptance))
        draw = rng.uniform(edge, 1.0, size=(size, n))
        member = np.empty(size, dtype=bool)
        for lo in range(0, size, _BLOCK_ROWS):
            table = sigma_table(draw[lo:lo + _BLOCK_ROWS], k)
            member[lo:lo + _BLOCK_ROWS] = np.all(table.T[1:] > 0.0, axis=0)
        keep = draw[member]
        out.append(keep)
        have += keep.shape[0]
        if have >= count:
            break
        if keep.shape[0] < 0.05 * size:
            edge *= 0.5
        acceptance = max(keep.shape[0], 1) / size
    else:
        raise RuntimeError(f"cone sampling stalled for n={n}, k={k}")
    vals = np.concatenate(out, axis=0)[:count]
    return vals * 10.0 ** rng.uniform(-1.0, 1.0, size=(count, 1))


def cone_boundary_shift(vals: np.ndarray, k: int) -> np.ndarray:
    """Move the last entry so sigma_{k+1} vanishes exactly.

    sigma_{k+1}(lam) is linear in any single entry, so the root is
    -sigma_{k+1}(lam|n)/sigma_k(lam|n); the result sits on the boundary of
    the (k+1)-cone (rows whose shifted vector leaves the k-th cone are the
    caller's to filter).
    """
    rest = vals[:, :-1]
    table = sigma_table(rest, min(k + 1, rest.shape[1]))
    sk = table[:, k] if k <= rest.shape[1] else np.zeros(vals.shape[0])
    sk1 = table[:, k + 1] if k + 1 <= rest.shape[1] else np.zeros(vals.shape[0])
    shifted = vals.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted[:, -1] = np.where(sk != 0.0, -sk1 / sk, np.nan)
    return shifted


@dataclass
class CheckResult:
    name: str
    n: int
    detail: str
    samples: int
    worst: float
    tolerance: float
    passed: bool
    recorded: dict = field(default_factory=dict)

    @classmethod
    def deviation(cls, name, n, detail, samples, worst, tolerance):
        """A check of a worst deviation: passes when worst <= tolerance (NaN fails)."""
        return cls(name, n, detail, samples, worst, tolerance, bool(worst <= tolerance))

    @classmethod
    def lower_bound(cls, name, n, detail, samples, worst, tolerance, recorded=None):
        """A check of a worst (least) value: passes when worst > -tolerance (NaN fails)."""
        return cls(name, n, detail, samples, worst, tolerance,
                   bool(worst > -tolerance), recorded or {})

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.recorded:
            pairs = ", ".join(f"{k}={v:.6g}" for k, v in self.recorded.items())
            extra = f" [{pairs}]"
        where = f"n={self.n}" + (f", {self.detail}" if self.detail else "")
        return (f"{self.name} ({where}): worst {self.worst:.3e} "
                f"vs tol {self.tolerance:.1e}{extra} {tag}")


@dataclass
class SuiteReport:
    n_max: int
    samples: int
    seed: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [c.line() for c in self.checks]

    def to_json(self) -> dict:
        return {
            "nMax": self.n_max,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _rel_worst(lhs: np.ndarray, rhs: np.ndarray, *scales) -> float:
    """max |lhs - rhs| / max(|lhs|, |rhs|, |scales|, 1e-300); lhs has the full shape,
    and at most two temporaries of it are alive."""
    denom = np.abs(lhs)
    for s in (rhs, *scales):
        np.maximum(denom, np.abs(s), out=denom)
    np.maximum(denom, 1.0e-300, out=denom)
    diff = lhs - rhs
    return float(np.max(np.divide(np.abs(diff, out=diff), denom, out=diff)))


def _check_exclusion_recurrence(vals, table) -> list:
    samples, n = vals.shape
    rows, cols = table.T, np.ascontiguousarray(vals.T)
    # signs cancel inside sigma_k: measure against sigma_k(|lam|), as scaling-degree
    # does; a row with no negative entry is its own |lam|
    cond, signed = rows.copy(), np.any(cols < 0.0, axis=0)
    cond[:, signed] = sigma_table(np.abs(vals[signed]), n).T
    # order k at row k - 1: sum_i sigma_k(lam|i), sum_i lam_i sigma_{k-1}(lam|i) and
    # their moduli, added in index order, as a leading-axis sum over i adds them
    esum, eabs, wsum, wabs = np.zeros((4, n, samples))
    worst_rec = 0.0
    # walked to sigma_n, each table's row n stays zero: sigma_n(lam|i) = 0
    for i, t_i in enumerate(_exclusion_walk(cols, 1, n)):
        terms = cols[i] * t_i[:n]
        esum += t_i[1:]
        eabs += np.abs(t_i[1:])
        wsum += terms
        wabs += np.abs(terms)
        # sigma_k = sigma_k(lam|i) + lam_i sigma_{k-1}(lam|i), every k
        terms += t_i[1:]
        worst_rec = max(worst_rec, _rel_worst(rows[1:], terms, cond[1:]))
    del t_i, terms  # the walk's buffers go with its last table
    k = np.arange(1, n + 1)[:, None]
    return [
        CheckResult.deviation(name, n, "all k", samples, worst, _EQ_TOL)
        for name, worst in (("exclusion-recurrence", worst_rec),
                            # sum_i lam_i sigma_{k-1}(lam|i) = k sigma_k
                            ("weighted-exclusion-sum", _rel_worst(wsum, k * rows[1:], wabs)),
                            # sum_i sigma_k(lam|i) = (n-k) sigma_k
                            ("exclusion-sum", _rel_worst(esum, (n - k) * rows[1:], eabs)))
    ]


def _check_homogeneity(vals, tb, t) -> CheckResult:
    samples, n = vals.shape
    ta = sigma_table(vals * t, n).T
    # mixed signs cancel inside sigma_m, so measure against the term-sum
    # magnitude (sigma of |lam|), not the possibly tiny result
    cond = sigma_table(np.abs(vals * t), n).T
    worst = 0.0
    for m in range(n + 1):
        err = np.abs(ta[m] - t[:, 0] ** m * tb.T[m]) / cond[m]
        worst = max(worst, float(np.max(err)))
    return CheckResult.deviation("scaling-degree", n, "all m", samples, worst, _EQ_TOL)


def _check_sorted_chain(vals, table, k) -> list:
    """Checks of order k on rows sorted descending and their sigma table."""
    samples, n = vals.shape
    cols, rows = np.ascontiguousarray(vals.T), table.T
    # sigma_{k-1}(lam|i) for each i: column k - 1 of each exclusion table
    ekm1 = np.empty_like(cols)
    for i, t_i in enumerate(_exclusion_walk(cols, 1, k - 1)):
        ekm1[i] = t_i[k - 1]
    # excluding a smaller entry keeps more mass: chain increases with index
    diffs = np.diff(ekm1, axis=0)
    scale = np.maximum(np.abs(ekm1[1:]), 1.0)
    chain = CheckResult.lower_bound("ordered-exclusion-chain", n, f"k={k}", samples,
                                    float(np.min(diffs / scale)), _EQ_TOL)
    # the chain starts positive: the leading exclusion lies in the (k-1)-cone
    chain.passed = chain.passed and bool(np.all(ekm1[0] > 0.0))
    lam_k = cols[k - 1]
    prod = np.prod(cols[:k], axis=0)
    upper = math.comb(n, k) * prod - rows[k]
    scale_u = np.maximum(math.comb(n, k) * np.abs(prod), 1.0)
    results = [
        chain,
        CheckResult.lower_bound("leading-entry-positive", n, f"k={k}", samples,
                                float(np.min(lam_k)), 0.0),
        CheckResult.lower_bound("top-product-upper", n, f"k={k}", samples,
                                float(np.min(upper / scale_u)), _EQ_TOL),
    ]
    if k < n:
        inner = np.all(rows[1:k + 2] > 0.0, axis=0)
        if np.any(inner):
            prod_i = np.prod(cols[:k, inner], axis=0)
            lower = rows[k, inner] - prod_i
            scale_l = np.maximum(np.abs(prod_i), 1.0)
            results.append(CheckResult.lower_bound(
                "top-product-lower", n, f"k={k}", int(inner.sum()),
                float(np.min(lower / scale_l)), _EQ_TOL))
    return results


def _check_mean_ratio_gaps(table, n, k) -> CheckResult:
    samples = table.shape[0]
    norm = table[:, :k + 1] / np.array([math.comb(n, m) for m in range(k + 1)])
    log_norm = np.log(norm)  # all positive in the k-th cone; column 0 is log 1 = 0

    @functools.cache
    def ratio(a, b):
        # normalized mean ((sigma_a/C)/(sigma_b/C))^(1/(a-b)) via logs
        return np.exp((log_norm[:, a] - log_norm[:, b]) / (a - b))

    worst = np.inf
    count = 0
    for l in range(0, k):
        for r in range(1, k + 1):
            for s in range(0, min(l, r - 1) + 1):
                if (k, l) == (r, s):
                    continue
                gap = ratio(r, s) - ratio(k, l)
                rel = gap / np.maximum(ratio(r, s), 1e-300)
                worst = min(worst, float(np.min(rel)))
                count += 1
    return CheckResult.lower_bound("normalized-mean-ordering", n,
                                   f"k={k} ({count} index sets)", samples, worst, _QUOT_TOL)


def _check_quotient_gaps(gaps, outer, inner_trace, k) -> list:
    """Order k's trace bounds on Gamma_k's gaps, outer = Gamma_{k+1} and its inner_trace."""
    samples, n = outer.shape
    gap1, gap2, weighted = gaps
    rel1 = gap1 / np.maximum(np.abs(weighted), 1.0)
    out = [
        CheckResult.lower_bound("weighted-trace-lower", n, f"k={k}", samples,
                                float(np.min(rel1)), _QUOT_TOL),
        CheckResult.lower_bound("trace-lower", n, f"k={k}", samples,
                                float(np.min(gap2)), _QUOT_TOL),
    ]
    # the closure's columns, whose transpose sigma_table and _quotients take uncopied
    cols = np.ascontiguousarray(cone_boundary_shift(outer, k).T)
    tb = sigma_table(cols.T, min(k + 2, n)).T
    good = np.all(np.isfinite(cols), axis=0) & np.all(tb[1:k + 1] > 0.0, axis=0)
    cols, tb = cols[:, good], tb[:, good]
    # each row's trace is its own: the closed cone's two halves are evaluated apart
    upper = (n - k) - np.concatenate([_quotients(cols.T, tb.T, (k,))[0][2], inner_trace])
    out.append(CheckResult.lower_bound(
        "trace-upper-closure", n, f"k={k}", int(upper.shape[0]),
        float(np.min(upper)), _QUOT_TOL))
    return out


def _check_pinch_deficit(vals, table, parts, m) -> list:
    """Order m's checks on descending-sorted rows, their table and _pinch_deficits."""
    samples, n = vals.shape
    deficit, pair_sum, pinch = parts[0][:, m - 1], parts[1][:, m - 1], parts[2]

    base = m * (n - m) * table[:, m] ** 2
    scale = np.maximum.reduce([np.abs(deficit), np.abs(pair_sum), base, np.ones_like(base)])
    worst_eq = float(np.max(np.abs(deficit - pair_sum) / scale))
    worst_pos = float(np.min(deficit / scale))

    mask = (vals[:, 0] / vals[:, -1] <= 1.0e3) & (pinch > 1.0e-4)
    recorded = {}
    ratio_min = float("nan")
    if np.any(mask):
        ratio = deficit[mask] / (base[mask] * pinch[mask])
        ratio_min = float(np.min(ratio))
        recorded = {"ratioMin": ratio_min, "ratioMax": float(np.max(ratio)),
                    "kept": int(mask.sum())}
    comparability = CheckResult.lower_bound("deficit-pinch-comparability", n, f"m={m}",
                                            int(mask.sum()), ratio_min, 0.0, recorded)
    # NaN means no sample was kept: nothing to compare, so no violation
    comparability.passed = comparability.passed or math.isnan(ratio_min)
    return [
        CheckResult.deviation("deficit-pair-equality", n, f"m={m}", samples, worst_eq, _EQ_TOL),
        CheckResult.lower_bound("deficit-nonnegative", n, f"m={m}", samples,
                                worst_pos, _EQ_TOL),
        comparability,
    ]


def _dimension_checks(rng: np.random.Generator, samples: int, n: int) -> list:
    """Every check of one n, with at most two cones' rows and tables alive."""
    spread = sample_spread(rng, samples, n)
    table = sigma_table(spread, n)
    checks = _check_exclusion_recurrence(spread, table)
    checks.append(_check_homogeneity(spread, table, 10.0 ** rng.uniform(-1.0, 1.0, (samples, 1))))
    gaps = quotient_trace_gaps(sample_cone(rng, samples, n, 0), 0)
    for k in range(n):
        outer = sample_cone(rng, samples, n, k + 1)
        # orders k and k + 1 on Gamma_{k+1}; only the trace gaps outlive the step
        table = sigma_table(outer, min(k + 3, n))
        quots = _quotients(outer, table, range(k, min(k + 2, n)))
        # outer was scaled after sample_cone's membership test, so rounding
        # can move a sigma across 0: test its rows again
        inner = np.all(table.T[1:k + 2] > 0.0, axis=0)
        checks.extend(_check_quotient_gaps(gaps, outer, quots[0][2][inner], k))
        gaps = _trace_gaps(quots[-1], k + 1) if k + 1 < n else None
        del quots
        ranked = -np.sort(-outer, axis=1)
        ranked_table = sigma_table(ranked, min(k + 2, n))
        checks.extend(_check_sorted_chain(ranked, ranked_table, k + 1))
        checks.append(_check_mean_ratio_gaps(table, n, k + 1))
    parts = _pinch_deficits(ranked, ranked_table)
    return checks + [c for m in range(1, n)
                     for c in _check_pinch_deficit(ranked, ranked_table, parts, m)]


def run_identity_suite(n_max: int = 8, samples: int = 10000,
                       seed: int = 7) -> SuiteReport:
    """Run every randomized check for 2 <= n <= n_max."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    checks = [c for n in range(2, n_max + 1) for c in _dimension_checks(rng, samples, n)]
    return SuiteReport(n_max=n_max, samples=samples, seed=seed, checks=checks)
