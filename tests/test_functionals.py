import numpy as np
import pytest

from spherelab.errors import (
    FieldMeshMismatch,
    ModulusOutOfRange,
    NonpositiveWillmore,
)
from spherelab.extrinsic import ExtrinsicField
from spherelab.functionals import (
    SIGMA_UNIVERSAL_BOUND,
    FunctionalReport,
    complete_elliptic_E,
    evaluate_functionals,
    functional_csv,
    sigma_of_class,
    willmore_bound_table,
)
from spherelab.zoo import (
    clifford_torus,
    great_sphere,
    lawson_tau_area,
    veronese_rp2,
)


def _report(mesh):
    return evaluate_functionals(mesh, ExtrinsicField.compute(mesh))


def _agm_elliptic_E(k, iterations=40):
    # arithmetic-geometric mean: K = pi / (2 agm(1, k')), and
    # E = K (1 - sum 2^{n-1} c_n^2) with c_0 = k, c_{n+1} = (a_n - b_n)/2
    a, b, c = 1.0, np.sqrt(1.0 - k * k), k
    s = 0.5 * c * c
    pow2 = 0.5
    for _ in range(iterations):
        a, b, c = (a + b) / 2, np.sqrt(a * b), (a - b) / 2
        pow2 *= 2.0
        s += pow2 * c * c
        if c < 1e-18:
            break
    K = np.pi / (2 * a)
    return K * (1.0 - s)


# ---------------------------------------------------------------------------
# wiring identities


def test_wiring_identities_hold_on_every_report():
    for mesh in (great_sphere(2), clifford_torus(16), veronese_rp2(1)):
        rep = _report(mesh)
        assert abs(rep.willmore - (2 * rep.theta + rep.psi)) < 1e-12 * rep.willmore
        assert abs(rep.dfun - (rep.theta + rep.pi_)) < 1e-12 * rep.dfun
        assert abs(rep.total_scalar - (rep.willmore - rep.dfun)) < 1e-9
        assert abs(rep.theta - 2 * rep.area) < 1e-12 * rep.area


def test_report_constructor_rejects_broken_wiring():
    with pytest.raises(ValueError):
        FunctionalReport(theta=2.0, psi=1.0, pi_=1.0, total_scalar=0.0,
                         willmore=99.0, dfun=3.0, area=1.0, euler=2)


def test_one_induced_metric_per_measured_mesh(monkeypatch):
    # the field carries the dual areas of the metric it measured on, so the
    # functionals build no second one
    from spherelab.mesh import DiscreteMetric

    mesh = clifford_torus(16)
    built = []
    post_init = DiscreteMetric.__post_init__

    def counted(metric):
        built.append(metric.convention)
        post_init(metric)

    monkeypatch.setattr(DiscreteMetric, "__post_init__", counted)
    evaluate_functionals(mesh, ExtrinsicField.compute(mesh))
    assert built == ["spherical"]


def test_field_mesh_mismatch():
    small, big = great_sphere(1), great_sphere(2)
    with pytest.raises(FieldMeshMismatch):
        evaluate_functionals(big, ExtrinsicField.compute(small))


# ---------------------------------------------------------------------------
# convergence to the classical constants


def test_sphere_willmore_tends_to_16pi():
    rep = _report(great_sphere(3))
    assert abs(rep.willmore - 16 * np.pi) / (16 * np.pi) < 1e-4
    assert abs(rep.total_scalar - 8 * np.pi) < 1e-6


def test_clifford_willmore_tends_to_8pi2():
    errs = []
    for n in (16, 32, 64):
        rep = _report(clifford_torus(n))
        errs.append(abs(rep.willmore - 8 * np.pi ** 2) / (8 * np.pi ** 2))
        assert rep.euler == 0
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_total_scalar_tends_to_4pi_chi():
    errs = [abs(_report(clifford_torus(n)).total_scalar) for n in (16, 32, 64)]
    assert errs[0] > errs[1] > errs[2]
    errs = [abs(_report(veronese_rp2(level)).total_scalar - 4 * np.pi)
            for level in (1, 2, 3)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# sigma invariant


def test_sigma_closed_forms():
    sphere = sigma_of_class(16 * np.pi, 2)
    assert abs(sphere.sigma_class - SIGMA_UNIVERSAL_BOUND) < 1e-12
    assert sphere.bounds_ok
    torus = sigma_of_class(8 * np.pi ** 2, 0)
    assert torus.sigma_class == 0.0
    projective = sigma_of_class(24 * np.pi, 1)
    assert abs(projective.sigma_class - 4 / np.sqrt(6) * np.sqrt(np.pi)) < 1e-12


def test_sigma_carries_the_sign_of_chi():
    rng = np.random.default_rng(23)
    for _ in range(50):
        w = float(rng.uniform(1.0, 200.0))
        chi = int(rng.integers(-6, 3))
        rep = sigma_of_class(w, chi)
        assert np.sign(rep.sigma_class) == np.sign(chi)
        assert abs(rep.s2a - rep.sigma_class ** 2) < 1e-9 * max(1.0, rep.s2a)
        assert abs(rep.class_area_a - w / 4) < 1e-12 * w


def test_sigma_rejects_nonpositive_willmore():
    with pytest.raises(NonpositiveWillmore):
        sigma_of_class(0.0, 2)
    with pytest.raises(NonpositiveWillmore):
        sigma_of_class(-5.0, 2)


# ---------------------------------------------------------------------------
# elliptic integral


def test_elliptic_E_endpoints():
    assert abs(complete_elliptic_E(0.0) - np.pi / 2) < 1e-14
    assert abs(complete_elliptic_E(0.999999) - 1.0) < 1e-4


def test_elliptic_E_domain():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ModulusOutOfRange):
            complete_elliptic_E(bad)


def test_elliptic_E_against_agm_oracle():
    rng = np.random.default_rng(31)
    for k in np.concatenate([rng.uniform(0.0, 0.999, 25), [2 * np.sqrt(2) / 3]]):
        assert abs(complete_elliptic_E(float(k)) - _agm_elliptic_E(float(k))) < 1e-10


def test_elliptic_E_matches_torus_area_quadrature():
    # 12 pi E(2 sqrt2 / 3) equals the direct length-element quadrature
    E = complete_elliptic_E(2 * np.sqrt(2) / 3)
    assert abs(12 * np.pi * E - lawson_tau_area(3, 1)) < 1e-10


# ---------------------------------------------------------------------------
# tables and CSV


def test_willmore_bound_table_flags():
    reps = [("sphere", _report(great_sphere(2))),
            ("clifford", _report(clifford_torus(24))),
            ("veronese", _report(veronese_rp2(2)))]
    table = willmore_bound_table(reps)
    assert all(r["w_in_range"] for r in table["rows"])
    assert table["summary"]["all_sigma_in_bound"]
    assert table["summary"]["sphere_attains_lower_end"]


def test_functional_csv_is_stable_and_well_formed():
    reps = [("sphere", _report(great_sphere(1))),
            ("clifford", _report(clifford_torus(12)))]
    text = functional_csv(reps)
    again = functional_csv(reps)
    assert text == again
    lines = text.strip().split("\n")
    assert lines[0] == ("name,area,theta,psi,pi,willmore,dfun,"
                        "total_scalar,euler,sigma,bounds_ok")
    assert len(lines) == 3
    sphere = lines[1].split(",")
    assert sphere[0] == "sphere"
    assert abs(float(sphere[1]) - 4 * np.pi) < 1e-9
    assert sphere[8] == "2" and sphere[10] == "1"
