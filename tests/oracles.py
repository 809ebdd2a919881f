"""Independent reference implementations used to pin down the fast paths.

Everything here is deliberately naive: subset enumeration for symmetric
functions, finite differences for gradients, characteristic polynomials
for eigenvalue bookkeeping.  Slow but hard to get wrong.
"""

import itertools
import math

import numpy as np
from scipy.integrate import Radau
from scipy.sparse import diags

import sphereflow.flow as flow
from sphereflow.identities import _CONE_EDGE
from sphereflow.symfunc import sigma_table


def sigma_subsets(lam, m):
    """sigma_m by summing over all m-element subsets."""
    lam = np.asarray(lam, dtype=float)
    if m == 0:
        return 1.0
    if m > lam.size:
        return 0.0
    return float(sum(np.prod(lam[list(c)]) for c in itertools.combinations(range(lam.size), m)))


def sigma_charpoly(lam, m):
    """sigma_m from the characteristic polynomial of diag(lam)."""
    lam = np.asarray(lam, dtype=float)
    if m == 0:
        return 1.0
    coeffs = np.poly(lam)  # x^n - s1 x^{n-1} + s2 x^{n-2} - ...
    return float((-1.0) ** m * coeffs[m])


def sigma_excluding(lam, m, drop):
    """sigma_m of lam with the listed indices removed."""
    lam = np.asarray(lam, dtype=float)
    keep = [i for i in range(lam.size) if i not in set(drop)]
    return sigma_subsets(lam[keep], m)


def quotient(lam, k):
    return sigma_subsets(lam, k + 1) / sigma_subsets(lam, k)


def quotient_grad_fd(lam, k, step=1e-7):
    """Central-difference gradient of sigma_{k+1}/sigma_k."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty_like(lam)
    for i in range(lam.size):
        up = lam.copy()
        dn = lam.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (quotient(up, k) - quotient(dn, k)) / (2.0 * step)
    return out


def fd_even_derivatives(values, h):
    """Gradient and second derivative of an even-extension grid function.

    Matches the stencil contract of the production code but is written
    from scratch: ghost nodes mirror across both poles.
    """
    v = np.asarray(values, dtype=float)
    ext = np.concatenate(([v[1]], v, [v[-2]]))
    grad = (ext[2:] - ext[:-2]) / (2.0 * h)
    hess = (ext[2:] - 2.0 * v + ext[:-2]) / h**2
    return grad, hess


# -- the np.delete loops the exclusion kernels were first written with ------
# They pin the index-gathered rewrites bit for bit, so they share the
# production sigma_table and its accumulation order on purpose.


def _ext(table, m):
    return table[..., m] if 0 <= m < table.shape[-1] else np.zeros(table.shape[:-1])


def sigma_table_temporaries(lam, mmax):
    """sigma_table with a fresh product array per coefficient update."""
    vals = np.asarray(lam, dtype=float)
    cols = np.ascontiguousarray(np.moveaxis(vals, -1, 0))
    out = np.zeros((mmax + 1,) + vals.shape[:-1])
    out[0] = 1.0
    for j in range(vals.shape[-1]):
        for m in range(min(j + 1, mmax), 0, -1):
            out[m] += cols[j] * out[m - 1]
    return np.moveaxis(out, 0, -1)


def excl_tables_delete(vals, mmax):
    """sigma tables of each single-exclusion vector, stacked on axis 1."""
    count, n = vals.shape
    out = np.empty((count, n, mmax + 1))
    for i in range(n):
        out[:, i, :] = sigma_table(np.delete(vals, i, axis=1), mmax)
    return out


def exclusion_tables_delete(vals, r, mmax):
    """sigma_table(vals less c, mmax) for each r-subset c, in combinations order."""
    for c in itertools.combinations(range(vals.shape[-1]), r):
        yield sigma_table(np.delete(vals, c, axis=-1), mmax)


def quotient_grad_delete(vals, k):
    """Diagonal gradient of sigma_{k+1}/sigma_k, batched over leading axes."""
    n = vals.shape[-1]
    table = sigma_table(vals, min(k + 2, n))
    sk = table[..., k]
    sk1 = table[..., k + 1] if k + 1 <= n else np.zeros(sk.shape)
    grad = np.empty(vals.shape)
    for i in range(n):
        t_i = sigma_table(np.delete(vals, i, axis=-1), min(k, n - 1))
        grad[..., i] = (_ext(t_i, k) * sk - sk1 * _ext(t_i, k - 1)) / sk**2
    return grad


def pair_sum_delete(vals, m):
    """sum over i<j of (lam_i - lam_j)^2 [sigma_{m-1}^2 - sigma_{m-2} sigma_m](lam|ij)."""
    n = vals.shape[-1]
    pair_sum = np.zeros(vals.shape[:-1])
    for i in range(n - 1):
        for j in range(i + 1, n):
            t_ij = sigma_table(np.delete(vals, (i, j), axis=-1), min(m, n - 2))
            a, b, c = _ext(t_ij, m - 1), _ext(t_ij, m - 2), _ext(t_ij, m)
            pair_sum = pair_sum + (vals[..., i] - vals[..., j]) ** 2 * (a**2 - b * c)
    return pair_sum


def deficit_own_table(vals, m):
    """m(n-m) sigma_m^2 - (m+1)(n-m+1) sigma_{m+1} sigma_{m-1} from a table to m + 1."""
    n = vals.shape[-1]
    table = sigma_table(vals, min(m + 1, n))
    return (m * (n - m) * table[..., m] ** 2
            - (m + 1) * (n - m + 1) * _ext(table, m + 1) * _ext(table, m - 1))


def sample_cone_whole_draw(rng, count, n, k):
    """identities.sample_cone with one membership test on each whole draw."""
    out = []
    have = 0
    edge = 0.0 if k == n else _CONE_EDGE
    acceptance = 1.0
    for _ in range(60):
        size = min(4 * count, math.ceil(1.1 * (count - have) / acceptance))
        draw = rng.uniform(edge, 1.0, size=(size, n))
        table = sigma_table(draw, k)
        keep = draw[np.all(table[:, 1:] > 0.0, axis=1)]
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


def plain_radau(rate, y0, config, first_step):
    """scipy's own Radau on rate from y0 to config's tMax, at most its dtMax per
    step (tMax where dtMax is None, as in the solvers), at the tolerances that
    flow._tolerances gives the solvers for config and with its
    finite-difference Jacobian of tridiagonal pattern: (final y, steps).

    A rate that raises ValueError gives NaN, which Radau answers with a
    smaller step, as the solvers' driver does.
    """
    def fun(t, y):
        try:
            return rate(y)
        except ValueError:
            return np.full(y.shape, np.nan)

    rtol, atol = flow._tolerances(config)
    with np.errstate(all="ignore"):
        solver = Radau(fun, 0.0, y0, config.t_max, first_step=first_step,
                       max_step=config.dt_max or config.t_max, rtol=rtol, atol=atol,
                       jac_sparsity=diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(y0.size,) * 2))
        steps = 0
        while solver.status == "running":
            solver.step()
            steps += 1
    assert solver.status == "finished", solver.status
    return solver.y, steps


# -- an exact solution of the flow: a geodesic sphere off the pole ----------
# The flow moves a geodesic sphere of radius R by a Killing field, so it stays
# a geodesic sphere of radius R whose centre slides along the axis to the pole.


def off_centre_sphere(theta, R, d):
    """rho(theta) of the geodesic sphere of radius R centred on the axis at
    distance d from the pole: cos R = cos rho cos d + sin rho sin d cos theta."""
    theta = np.asarray(theta, dtype=float)
    return (np.arctan2(np.sin(d) * np.cos(theta), np.cos(d))
            + np.arccos(np.cos(R) / np.hypot(np.cos(d), np.sin(d) * np.cos(theta))))


def off_centre_distance(n, k, R, d0, t):
    """Distance d(t) of that sphere's centre from the pole, tan(d/2) =
    tan(d0/2) exp(-c t / sin R), with c = (n - k)/(k + 1) the quotient
    sigma_{k+1}/sigma_k of n ones."""
    c = (n - k) / (k + 1)
    return 2.0 * math.atan(math.tan(0.5 * d0) * math.exp(-c * t / math.sin(R)))


def inverse_off_centre_distance(R, d0, t):
    """d(t) of the same sphere under the inverse-type law f = (c phi' - u F)/F:
    F = c cot R is constant on it, so the motion is the same with time scaled
    by tan R / c, tan(d/2) = tan(d0/2) exp(-t / cos R) for every (n, k)."""
    return 2.0 * math.atan(math.tan(0.5 * d0) * math.exp(-t / math.cos(R)))


def off_centre_stop_time(n, k, R, d0, tol):
    """Time t* at which that sphere's max speed, c sin d / sin R, falls to tol:
    t* = (sin R / c) ln(tan(d0/2) / tan(d*/2)), with sin d* = tol sin R / c."""
    c = (n - k) / (k + 1)
    d_stop = math.asin(tol * math.sin(R) / c)
    return math.sin(R) / c * math.log(math.tan(0.5 * d0) / math.tan(0.5 * d_stop))
