"""Integrated extrinsic functionals and the sigma invariant.

For a closed surface with extrinsic field (H, |alpha|^2) inside a unit
sphere the package integrates, with vertex dual-area quadrature,

    theta = int 2 dmu        (the spherical background term)
    psi   = int |H|^2 dmu
    pi_   = int |alpha|^2 dmu

and assembles willmore W = 2 theta + psi, dfun D = theta + pi_ and
total_scalar S = W - D, the integral of the scalar curvature, which
converges to 4 pi chi.  The sigma invariant of the conformal class is
sigma = 8 pi chi / sqrt(W), bounded above by 4 sqrt(pi) with equality on
the round sphere; it carries the sign of chi.

All reductions use numpy's pairwise summation, so reports are bitwise
reproducible for a given mesh.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import FieldMeshMismatch, ModulusOutOfRange, NonpositiveWillmore, NumericFailure
from .extrinsic import ExtrinsicField
from .mesh import SurfaceMesh, euler_characteristic

__all__ = [
    "FunctionalReport",
    "SigmaReport",
    "evaluate_functionals",
    "sigma_of_class",
    "willmore_bound_table",
    "complete_elliptic_E",
    "functional_csv",
    "SIGMA_UNIVERSAL_BOUND",
]

SIGMA_UNIVERSAL_BOUND = 4.0 * np.sqrt(np.pi)


@dataclass(frozen=True)
class FunctionalReport:
    """The integrated functionals of one surface, with wiring identities.

    ``total_scalar`` is assembled as ``willmore - dfun`` (so the identity
    holds by construction); its agreement with the independent angle-defect
    integral is bounded by the integrated Gauss residual and checked in
    :func:`evaluate_functionals`.
    """

    theta: float
    psi: float
    pi_: float
    total_scalar: float
    willmore: float
    dfun: float
    area: float
    euler: int

    def __post_init__(self):
        if abs(self.willmore - (2 * self.theta + self.psi)) > 1e-12 * max(1.0, abs(self.willmore)):
            raise ValueError("willmore != 2 theta + psi")
        if abs(self.dfun - (self.theta + self.pi_)) > 1e-12 * max(1.0, abs(self.dfun)):
            raise ValueError("dfun != theta + pi_")
        if abs(self.total_scalar - (self.willmore - self.dfun)) > 1e-9:
            raise ValueError("total_scalar != willmore - dfun")
        if abs(self.theta - 2 * self.area) > 1e-12 * max(1.0, self.area):
            raise ValueError("theta != 2 area")


@dataclass(frozen=True)
class SigmaReport:
    """sigma invariant of a conformal class, from (W, chi) alone."""

    class_area_a: float      # a = W / 4
    s2a: float               # (4 pi chi)^2 / a
    sigma_class: float       # 8 pi chi / sqrt(W), sign of chi included
    bounds_ok: bool

    def __post_init__(self):
        # s2a = sigma^2 identically; the sign of sigma lives in sigma_class
        if abs(self.s2a - self.sigma_class ** 2) > 1e-9 * max(1.0, self.s2a):
            raise ValueError("s2a does not square with sigma_class")


def evaluate_functionals(mesh: SurfaceMesh, ext: ExtrinsicField) -> FunctionalReport:
    """Integrate the extrinsic field over the mesh (dual-area quadrature).

    The total scalar curvature comes out twice: once as W - D and once as
    the angle-defect integral sum s_i A_i; their difference is exactly the
    integrated Gauss residual, which is verified here before reporting
    (NumericFailure when it is not).
    """
    if len(ext.alpha_sq) != mesh.n_vertices or len(ext.mean_curvature) != mesh.n_vertices:
        raise FieldMeshMismatch(
            f"field has {len(ext.alpha_sq)} vertices, mesh has {mesh.n_vertices}")
    A = ext.dual_areas
    area = float(np.sum(A))
    theta = 2.0 * area
    psi = float(np.sum(np.sum(ext.mean_curvature ** 2, axis=1) * A))
    pi_ = float(np.sum(ext.alpha_sq * A))
    willmore = 2.0 * theta + psi
    dfun = theta + pi_
    total_scalar = willmore - dfun
    defect_route = float(np.sum(ext.scalar_curvature * A))
    budget = float(np.sum(np.abs(ext.residual) * A)) + 1e-9 * max(1.0, abs(total_scalar))
    if abs(defect_route - total_scalar) > budget:
        raise NumericFailure(
            "angle-defect and functional routes to the total scalar curvature "
            f"disagree beyond the residual budget: {defect_route} vs {total_scalar}")
    return FunctionalReport(theta, psi, pi_, total_scalar, willmore, dfun,
                            area, euler_characteristic(mesh))


def sigma_of_class(willmore: float, euler: int) -> SigmaReport:
    """sigma = 8 pi chi / sqrt(W) with the universal-bound flag.

    Scale-free in mesh resolution: only the Willmore value and the Euler
    characteristic enter.
    """
    if not willmore > 0.0:
        raise NonpositiveWillmore(f"willmore energy {willmore} is not positive")
    a = willmore / 4.0
    sigma = 8.0 * np.pi * euler / np.sqrt(willmore)
    s2a = (4.0 * np.pi * euler) ** 2 / a
    return SigmaReport(a, s2a, float(sigma),
                       bool(sigma <= SIGMA_UNIVERSAL_BOUND + 1e-9))


def willmore_bound_table(reports) -> dict:
    """Bound checks for the distinguished surfaces' Willmore values.

    ``reports`` is a list of (name, FunctionalReport).  Each row records W,
    sigma, and whether 16 pi <= W < 32 pi; the summary records whether every
    sigma respects the universal bound and whether the sphere (when present)
    attains the lower end of the W range.
    """
    lo, hi = 16 * np.pi, 32 * np.pi
    rows = []
    for name, rep in reports:
        sig = sigma_of_class(rep.willmore, rep.euler)
        rows.append({
            "name": name,
            "willmore": rep.willmore,
            "sigma": sig.sigma_class,
            "w_in_range": bool(lo - 1e-6 <= rep.willmore < hi),
            "sigma_in_bound": sig.bounds_ok,
        })
    summary = {"all_sigma_in_bound": all(r["sigma_in_bound"] for r in rows)}
    spheres = [r for r in rows if r["sigma"] > SIGMA_UNIVERSAL_BOUND - 1e-3]
    if spheres:
        wmin = min(r["willmore"] for r in rows)
        summary["sphere_attains_lower_end"] = bool(
            min(r["willmore"] for r in spheres) <= wmin + 1e-6)
    return {"rows": rows, "summary": summary}


def complete_elliptic_E(k: float) -> float:
    """Complete elliptic integral E(k) = int_0^{pi/2} sqrt(1 - k^2 sin^2).

    The argument is the modulus k, not the parameter m = k^2.  Adaptive
    quadrature with relative error below 1e-12; the tests cross-check it
    against an arithmetic-geometric-mean iteration.
    """
    if not (0.0 <= k < 1.0):
        raise ModulusOutOfRange(f"modulus {k} outside [0, 1)")
    from scipy.integrate import quad

    k2 = k * k
    val, err = quad(lambda t: np.sqrt(1.0 - k2 * np.sin(t) ** 2), 0.0, np.pi / 2,
                    epsabs=1e-14, epsrel=1e-13)
    if err > 1e-11 * max(1.0, abs(val)):
        raise ModulusOutOfRange(f"quadrature failed to converge: err={err:.3e}")
    return float(val)


def functional_csv(rows) -> str:
    """CSV of (name, FunctionalReport) pairs, 17 significant digits.

    Columns: name,area,theta,psi,pi,willmore,dfun,total_scalar,euler,sigma,
    bounds_ok.  Output is deterministic for byte-identical reruns.
    """
    out = io.StringIO()
    out.write("name,area,theta,psi,pi,willmore,dfun,total_scalar,euler,sigma,bounds_ok\n")
    for name, rep in rows:
        sig = sigma_of_class(rep.willmore, rep.euler)
        vals = [rep.area, rep.theta, rep.psi, rep.pi_, rep.willmore,
                rep.dfun, rep.total_scalar]
        out.write(name + "," + ",".join(f"{v:.17g}" for v in vals)
                  + f",{rep.euler},{sig.sigma_class:.17g},{int(sig.bounds_ok)}\n")
    return out.getvalue()
