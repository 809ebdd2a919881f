"""Reference values computed apart from sphereflow.

Everything here uses the analytic profile rho(theta) = r0 + eps*cos(m*theta),
its exact derivatives, scipy's adaptive quadrature and the closed forms of
geodesic spheres.  No sphereflow code is imported, so a fault in the
program's stencils, quadrature or ladder cannot hide in its own check.

Conventions follow the paper: a convex body in S^{n+1} is a radial graph over
S^n, and its quermassintegrals are

    A_{-1} = Vol,  A_0 = S_0,  A_1 = S_1 + n*Vol,
    A_m = S_m + (n - m + 1)/(m - 1) * A_{m-2}    (2 <= m <= n),

with S_m the integral of the m-th elementary symmetric function of the
principal curvatures over the hypersurface.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

R_LO = 1e-6
R_HI = math.pi / 2 - 1e-6
_QUAD = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 400}


def sphere_area(m: int) -> float:
    """|S^m| = 2 pi^{(m+1)/2} / Gamma((m+1)/2)."""
    return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)


def sin_power_integral(n: int, x: float) -> float:
    """Integral of sin^n over [0, x] for x <= pi/2, by the incomplete beta function."""
    a = 0.5 * (n + 1)
    return 0.5 * special.beta(a, 0.5) * special.betainc(a, 0.5, math.sin(x) ** 2)


def _ladder(n: int, vol: float, s: list) -> list:
    """[A_{-1}, ..., A_n] from the volume and the curvature integrals S_0..S_n."""
    a = [vol, s[0]]
    if n >= 1:
        a.append(s[1] + n * vol)
    for m in range(2, n + 1):
        a.append(s[m] + (n - m + 1) / (m - 1) * a[m - 1])
    return a


def sphere_quermass(n: int, r: float) -> list:
    """[A_{-1}, ..., A_n] of the geodesic sphere of radius r."""
    area = sphere_area(n)
    s = [area * math.comb(n, j) * math.sin(r) ** (n - j) * math.cos(r) ** j
         for j in range(n + 1)]
    return _ladder(n, area * sin_power_integral(n, r), s)


def equal_radius(n: int, l: int, value: float) -> float:
    """Radius of the geodesic sphere whose A_l equals value (-1 <= l < n)."""
    if not -1 <= l < n:
        raise ValueError(f"A_{l} does not determine a radius for n={n}")
    return optimize.brentq(lambda r: sphere_quermass(n, r)[l + 1] - value,
                           R_LO, R_HI, xtol=1e-15, rtol=4 * np.finfo(float).eps,
                           maxiter=500)


class Profile:
    """rho(theta) = r0 + eps*cos(mode*theta) on the polar angle of S^n."""

    def __init__(self, n: int, r0: float, eps: float, mode: int):
        self.n, self.r0, self.eps, self.mode = int(n), float(r0), float(eps), int(mode)

    def rho(self, th):
        return self.r0 + self.eps * np.cos(self.mode * th)

    def curvatures(self, th):
        """Meridian and angular principal curvatures from exact derivatives."""
        m, e = self.mode, self.eps
        rho = self.r0 + e * np.cos(m * th)
        d1 = -e * m * np.sin(m * th)
        d2 = -e * m * m * np.cos(m * th)
        phi, phip = np.sin(rho), np.cos(rho)
        w = np.hypot(phi, d1)
        lam1 = (-phi * d2 + 2.0 * phip * d1**2 + phi**2 * phip) / w**3
        # cot(theta)*rho' -> rho'' at the poles; quad never samples them
        lam_ang = (phi * phip - d1 / np.tan(th)) / (phi * w)
        return lam1, lam_ang, phi, w

    def min_curvature(self, samples: int = 4001) -> float:
        th = np.linspace(0.0, math.pi, samples)[1:-1]
        lam1, lam_ang, _, _ = self.curvatures(th)
        return float(min(lam1.min(), lam_ang.min()))

    def quermass(self) -> list:
        """[A_{-1}, ..., A_n] by adaptive quadrature."""
        n = self.n
        ang = sphere_area(n - 1)

        def s_integrand(th, j):
            lam1, lam_ang, phi, w = self.curvatures(th)
            sig = math.comb(n - 1, j) * lam_ang**j
            if j >= 1:
                sig = sig + lam1 * math.comb(n - 1, j - 1) * lam_ang ** (j - 1)
            return sig * math.sin(th) ** (n - 1) * phi ** (n - 1) * w

        s = [ang * integrate.quad(s_integrand, 0.0, math.pi, args=(j,), **_QUAD)[0]
             for j in range(n + 1)]
        vol = ang * integrate.quad(
            lambda th: math.sin(th) ** (n - 1) * sin_power_integral(n, self.rho(th)),
            0.0, math.pi, **_QUAD)[0]
        return _ladder(n, vol, s)
