"""Elementary symmetric functions of principal curvatures.

Everything here operates on plain curvature vectors (length n arrays) or
on batches of them stacked along leading axes, so the same routines serve
single-point queries and whole-grid evaluations.  sigma_m denotes the
m-th elementary symmetric polynomial with the conventions sigma_0 = 1 and
sigma_m = 0 for m < 0 or m > n.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .exceptions import ConeViolation

__all__ = [
    "sigma_table",
    "quotient",
    "identity_quotient",
    "sigma_two_value",
    "quotient_two_core",
    "quotient_two_value",
    "quotient_trace_gaps",
]


def _values(lam) -> np.ndarray:
    a = np.asarray(lam, dtype=float)
    if a.ndim == 0:
        raise ValueError("expected arrays of curvature vectors along the last axis")
    return a


def _expand(out: np.ndarray, cols, top: int, mmax: int, tmp: np.ndarray) -> int:
    """Multiply (1 + t*v) for each v in cols into the t^0 .. t^mmax rows of
    out, whose rows above top are zero, in place; returns the new top."""
    for v in cols:
        top = min(top + 1, mmax)
        # descending order so each coefficient is updated from the previous pass
        for m in range(top, 0, -1):
            np.multiply(v, out[m - 1], out=tmp)
            out[m] += tmp
    return top


def sigma_table(lam, mmax: int) -> np.ndarray:
    """All sigma_0 .. sigma_mmax, stacked along a new last axis.

    Built by multiplying out prod_i (1 + t*lam_i) one factor at a time and
    keeping coefficients up to t^mmax, which is a single O(n*mmax) pass.
    """
    vals = _values(lam)
    if not 0 <= mmax:
        raise ValueError("mmax must be nonnegative")
    # built batch-first, so every row of the update is one contiguous array
    cols = np.ascontiguousarray(vals.T)
    out = np.zeros((mmax + 1,) + cols.shape[1:])
    out[0] = 1.0
    _expand(out, cols, 0, mmax, np.empty(cols.shape[1:]))
    return out.T


def _walk(bufs, depth, cols, start, top, r, mmax, tmp):
    """Tables of bufs[depth]'s prefix extended by cols[start:] less r of them."""
    state = bufs[depth]
    if r == 0:
        _expand(state, cols[start:], top, mmax, tmp)
        yield state.T
        return
    for i in range(start, cols.shape[0] - r + 1):
        if i > start:
            top = _expand(state, cols[i - 1:i], top, mmax, tmp)
        np.copyto(bufs[depth + 1], state)
        yield from _walk(bufs, depth + 1, cols, i + 1, top, r - 1, mmax, tmp)


def _exclusion_tables(lam, r: int, mmax: int):
    """sigma_table of lam less c, for each r-subset c of its entries in
    itertools.combinations order; each table is a view the next overwrites.

    Each dropped set continues from the product of the entries before its
    first dropped index, so each shared prefix is multiplied once, with the
    same operations in the same order as sigma_table: the tables are equal
    bit for bit.
    """
    cols = np.ascontiguousarray(_values(lam).T)
    # one buffer per depth, held by a module-level generator: a nested one
    # would be in a cycle with its closure cell, freed only by the collector
    bufs = np.zeros((r + 1, mmax + 1) + cols.shape[1:])
    bufs[0, 0] = 1.0
    yield from _walk(bufs, 0, cols, 0, 0, r, mmax, np.empty(cols.shape[1:]))


def identity_quotient(n: int, k: int) -> float:
    """Value of sigma_{k+1}/sigma_k on the all-ones vector: (n-k)/(k+1)."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"quotient order k={k} out of range for n={n}")
    return (n - k) / (k + 1)


def _quotients(vals, table, ks):
    """[quotient(vals, k) for k in ks] from the caller's sigma table of vals, built to
    min(max(ks) + 2, n) or further, and one single-exclusion walk to max(ks): row m
    of a table does not depend on how far it runs, so each is quotient's bit for bit."""
    n = vals.shape[-1]
    for k in ks:
        if not np.all(table[..., k] > 0.0):
            raise ConeViolation(f"sigma_{k} not positive on some sample")
    grads = [np.empty(vals.shape) for _ in ks]
    sk2 = [table[..., k]**2 for k in ks]
    for i, t_i in enumerate(_exclusion_tables(vals, 1, min(max(ks), n - 1))):
        for k, grad, s2 in zip(ks, grads, sk2):
            grad[..., i] = (t_i[..., k] * table[..., k]
                            - table[..., k + 1] * (t_i[..., k - 1] if k else 0.0)) / s2
    return [(table[..., k + 1] / table[..., k], grad, np.sum(grad, axis=-1),
             np.sum(grad * vals**2, axis=-1)) for k, grad in zip(ks, grads)]


def quotient(lam, k: int):
    """F = sigma_{k+1}/sigma_k, its diagonal gradient and the two trace sums.

    lam is one curvature vector or a batch along leading axes.  Returns
    (F, grad, trace_grad, weighted_trace) with trace_grad = sum_i F^{ii} and
    weighted_trace = sum_i F^{ii} lam_i^2; raises ConeViolation unless
    sigma_k > 0 on every vector.
    """
    vals = _values(lam)
    n = vals.shape[-1]
    if not 0 <= k <= n - 1:
        raise ValueError(f"quotient order k={k} out of range for n={n}")
    return _quotients(vals, sigma_table(vals, min(k + 2, n)), (k,))[0]


def sigma_two_value(lam1, lam2, n: int, m: int):
    """sigma_m of the vector (lam1, lam2, ..., lam2) with lam2 repeated n-1 times.

    Closed form used on axisymmetric grids where only two distinct principal
    curvatures occur; vectorized over node arrays lam1, lam2, which stay
    complex if they are.
    """
    if not 0 <= m <= n:
        raise ValueError(f"sigma index m={m} out of range for n={n}")
    lam1, lam2 = np.asarray(lam1), np.asarray(lam2)
    dtype = complex if lam1.dtype.kind == "c" or lam2.dtype.kind == "c" else float
    lam1, lam2 = lam1.astype(dtype, copy=False), lam2.astype(dtype, copy=False)
    if m == 0:
        # [()] makes scalar input give a scalar, as the sums below do
        return np.ones(np.broadcast(lam1, lam2).shape)[()]
    out = lam1 * math.comb(n - 1, m - 1) * lam2 ** (m - 1)
    if m <= n - 1:
        out = math.comb(n - 1, m) * lam2**m + out
    return out


def quotient_two_core(lam1, lam2, n: int, k: int):
    """F = sigma_{k+1}/sigma_k on two-value curvature vectors, with sigma_k and
    sigma_{k+1}; the cone check and errors of quotient_two_value, no gradient.
    Nodes run along the last axis, which a ConeViolation's node indexes.  The
    check reads real parts, so complex curvatures pass where theirs do."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"quotient order k={k} out of range for n={n}")
    sk = sigma_two_value(lam1, lam2, n, k)
    positive = sk.real > 0.0
    if not np.all(positive):
        node = int(np.argwhere(~np.atleast_1d(positive))[0, -1])
        raise ConeViolation(f"sigma_{k} not positive at node {node}", node=node)
    sk1 = sigma_two_value(lam1, lam2, n, k + 1)
    return sk1 / sk, sk, sk1


def quotient_two_value(lam1, lam2, n: int, k: int):
    """Quotient data on two-value curvature vectors, vectorized over nodes.

    Returns (F, F_1, F_2, trace_grad, weighted_trace) where F_1 is the
    gradient entry of the simple curvature and F_2 the entry shared by the
    n-1 repeated ones.  Raises ConeViolation when sigma_k <= 0 anywhere,
    carrying the first offending node index.
    """
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    value, sk, sk1 = quotient_two_core(lam1, lam2, n, k)

    def excl_one(m):
        # vector with lam1 removed: lam2 repeated n-1 times
        return math.comb(n - 1, m) * lam2**m if 0 <= m <= n - 1 else 0.0

    def excl_rep(m):
        # vector with one repeated entry removed: (lam1, lam2 x (n-2))
        return sigma_two_value(lam1, lam2, n - 1, m) if 0 <= m <= n - 1 else 0.0

    f1 = (excl_one(k) * sk - sk1 * excl_one(k - 1)) / sk**2
    f2 = (excl_rep(k) * sk - sk1 * excl_rep(k - 1)) / sk**2
    trace = f1 + (n - 1) * f2
    weighted = f1 * lam1**2 + (n - 1) * f2 * lam2**2
    return value, f1, f2, trace, weighted


def quotient_trace_gaps(lam, k: int):
    """Gaps of the two quotient-gradient trace bounds, batched over samples.

    Returns (weighted_trace - F^2/c, trace_grad - c, weighted_trace) with c
    the quotient's value on the all-ones vector; both gaps are nonnegative
    on the k-th cone and trace_grad is additionally bounded above by n - k
    on the closed (k+1)-th cone.
    """
    return _trace_gaps(quotient(lam, k), k)


def _trace_gaps(quot, k: int):
    """quotient_trace_gaps from quotient's result of order k."""
    c = identity_quotient(quot[1].shape[-1], k)
    return quot[3] - quot[0]**2 / c, quot[2] - c, quot[3]


def _pinch_deficits(vals, table):
    """Both closed forms of the spread deficit for every m = 1 .. n-1, plus the
    pinching ratio, from vals' sigma table to sigma_n and one pair-exclusion
    walk to sigma_{n-2}.  Returns (deficit, pair_sum, pinch) where

      deficit  = m(n-m) sigma_m^2 - (m+1)(n-m+1) sigma_{m+1} sigma_{m-1}
      pair_sum = sum over pairs i<j of (lam_i - lam_j)^2 *
                 [sigma_{m-1}(lam|ij)^2 - sigma_{m-2}(lam|ij) sigma_m(lam|ij)]
      pinch    = (lam_max - lam_min)^2 / lam_max^2

    deficit and pair_sum hold order m at index m - 1 of a new last axis.  The
    two deficit forms agree identically; entries must all be positive.
    """
    if not np.all(vals > 0.0):
        raise ConeViolation("pinch deficits require positive curvatures")
    n = vals.shape[-1]
    m = np.arange(1, n)
    deficit = (m * (n - m) * table[..., 1:n]**2
               - (m + 1) * (n - m + 1) * table[..., 2:] * table[..., :n - 1])
    pair_sum = np.zeros(vals.shape[:-1] + (n - 1,))
    # sigma_{-1} .. sigma_n of lam|ij, zero outside 0 .. n-2
    ext = np.zeros(vals.shape[:-1] + (n + 1,))
    for (i, j), t_ij in zip(itertools.combinations(range(n), 2),
                            _exclusion_tables(vals, 2, n - 2)):
        ext[..., 1:n] = t_ij
        pair_sum += ((vals[..., i] - vals[..., j]) ** 2)[..., None] * (
            ext[..., 1:n]**2 - ext[..., :n - 1] * ext[..., 2:])
    hi, lo = np.max(vals, axis=-1), np.min(vals, axis=-1)
    return deficit, pair_sum, (hi - lo) ** 2 / hi**2
