"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json

import numpy as np

from fuzzystab.cli import main as cli_main
from fuzzystab.control import (
    ConstantControl,
    PowerControl,
    ProductControl,
    scaling_alpha_check,
)
from fuzzystab.extraction import (
    ExtractedComponent,
    Scheme,
    extract_components,
    extract_limit,
    uniqueness_crosscheck,
)
from fuzzystab.funceq import (
    CoordinatePoly,
    Perturbation,
    TestFunction,
    even_part,
    odd_part,
    remove_offset,
    residual_additive,
    residual_main,
    residual_quadratic,
)
from fuzzystab.harness import ExperimentConfig, run_pipeline
from fuzzystab.spaces import (
    FuzzyNorm,
    check_axioms,
    default_axiom_samples,
    euclidean_norm,
    log_a_grid,
)
from test_control_reference import reference_scaling_alpha_check

V = lambda *vals: np.array([float(v) for v in vals])

QUAD_COS = TestFunction.scalar(
    quad=1.0, perturbations=(Perturbation(shape="cos", amplitude=0.01),)
)
LIN_SIN = TestFunction.scalar(
    linear=2.0, perturbations=(Perturbation(shape="sin", amplitude=0.01),)
)
MIXED = TestFunction.scalar(
    quad=1.0,
    linear=2.0,
    perturbations=(
        Perturbation(shape="sin", amplitude=0.01),
        Perturbation(shape="cos", amplitude=0.01),
    ),
)


def _verdict(criterion, passed, detail=""):
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _random_polynomial(rng, dim):
    coords = []
    for _ in range(dim):
        quad = rng.normal(size=(dim, dim))
        coords.append(
            CoordinatePoly(
                quad=(quad + quad.T) / 2,
                linear=rng.normal(size=dim),
                const=float(rng.normal()),
            )
        )
    return TestFunction(coords=tuple(coords), dim_x=dim)


def test_criterion_1_exact_solution_residual():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for dim in (1, 3):
        for _ in range(50):
            f = _random_polynomial(rng, dim)
            for _ in range(100):
                x, y = rng.normal(size=dim), rng.normal(size=dim)
                r = residual_main(f, x, y)
                scale = 1.0 + float(np.linalg.norm(f(2 * x + y)))
                worst = max(worst, euclidean_norm(r) / scale)
    _verdict(1, worst <= 1e-9, f"worst relative residual {worst:.3e} (cap 1e-9)")


def test_criterion_2_axiom_suite():
    points, scalars = default_axiom_samples(dim=2, count=200, seed=12)
    checks = check_axioms(FuzzyNorm.induced(), points, scalars)
    report = {c.axiom: c for c in checks}
    checked_ok = all(
        report[a].passed and report[a].violations == 0 for a in ("N1", "N2", "N3", "N4", "N5")
    )
    sampled = report["N6"].status == "sampled"
    _verdict(2, checked_ok and sampled, "N1-N5 zero violations; N6 reported as sampled")


def test_criterion_3_geometric_convergence():
    f = TestFunction.scalar(quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),))
    ratios, errors = [], []
    for x in np.linspace(0.5, 3.0, 10):
        r = extract_limit(Scheme.QUADRATIC_UP, f, V(x))
        assert r.converged
        ratios.append(r.ratio_estimate)
        errors.append(abs(r.limit_value[0] - x * x))
    ok = all(0.15 <= q <= 0.35 for q in ratios) and all(e <= 1e-8 for e in errors)
    _verdict(
        3,
        ok,
        f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}] (theory 1/4); "
        f"max |limit - x^2| = {max(errors):.2e}",
    )


def test_criterion_4_component_recovery():
    f = TestFunction.scalar(quad=3.0, linear=2.0, const=5.0)
    shifted, f0 = remove_offset(f)
    (q, a), _ = extract_components(shifted, (Scheme.QUADRATIC_UP, Scheme.ADDITIVE_UP), [V(1)])
    q1 = q(V(1))[0]
    a1 = a(V(1))[0]
    recovery_ok = abs(q1 - 3.0) <= 1e-9 and abs(a1 - 2.0) <= 1e-9 and f0[0] == 5.0

    rng = np.random.default_rng(44)
    fe, fo = even_part(f), odd_part(f)
    ulps_ok = True
    for x in rng.uniform(-3.0, 3.0, size=1000):
        fx = f(V(x))[0]
        total = fe(V(x))[0] + fo(V(x))[0]
        if abs(total - fx) > 4 * np.spacing(abs(fx)):
            ulps_ok = False
            break
    _verdict(
        4,
        recovery_ok and ulps_ok,
        f"Q(1)={q1:.12f}, A(1)={a1:.12f}; parity split within 4 ulps at 1000 points",
    )


def test_criterion_5_limit_laws():
    q = ExtractedComponent(scheme=Scheme.QUADRATIC_UP, source=QUAD_COS)
    a = ExtractedComponent(scheme=Scheme.ADDITIVE_UP, source=LIN_SIN)
    pairs = [(0.5, 0.8), (1.0, 1.0), (1.5, -0.7), (2.0, 0.3)]
    worst_q = max(euclidean_norm(residual_quadratic(q, V(x), V(y))) for x, y in pairs)
    worst_a = max(euclidean_norm(residual_additive(a, V(x), V(y))) for x, y in pairs)
    worst_2q = max(abs(q(V(2 * x))[0] - 4.0 * q(V(x))[0]) for x in (0.5, 1.0, 1.7))
    worst_2a = max(abs(a(V(2 * x))[0] - 2.0 * a(V(x))[0]) for x in (0.5, 1.0, 1.7))
    ok = worst_q <= 1e-6 and worst_a <= 1e-6 and worst_2q <= 1e-6 and worst_2a <= 1e-6
    _verdict(
        5,
        ok,
        f"quadratic defect {worst_q:.2e}, doubling law {worst_2q:.2e}; "
        f"additive defect {worst_a:.2e}, doubling law {worst_2a:.2e} (caps 1e-6)",
    )


def _bound_config(function, theorems):
    return ExperimentConfig.from_dict(
        {
            "seed": 20260809,
            "space": {"dim_x": 1, "dim_y": 1},
            "function": function,
            "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
            "theorems": theorems,
            "grids": {"x_count": 20, "x_radius": 2.0, "a_points": 25},
        }
    )


def test_criterion_6_stability_bounds():
    cases = [
        ("quadratic bound", {"quad": 1.0, "perturbations": [{"shape": "cos", "amplitude": 0.01}]}, ["quadratic_up"]),
        ("additive bound", {"linear": 2.0, "perturbations": [{"shape": "sin", "amplitude": 0.01}]}, ["additive_up"]),
        (
            "combined bound",
            {
                "quad": 1.0,
                "linear": 2.0,
                "perturbations": [
                    {"shape": "sin", "amplitude": 0.01},
                    {"shape": "cos", "amplitude": 0.01},
                ],
            },
            ["combined"],
        ),
    ]
    details = []
    ok = True
    for name, fn, theorems in cases:
        report = run_pipeline(_bound_config(fn, theorems))
        ver = report.verification_reports[0]
        good = ver.hypothesis_ok and ver.violations == 0 and ver.lhs.shape == (20, 25)
        ok = ok and good
        details.append(f"{name}: {ver.violations} violations (delta {report.resolved_delta:.3g})")
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_negative_control(tmp_path):
    config = {
        "seed": 7,
        "space": {"dim_x": 1, "dim_y": 1},
        "function": {"quad": 1.0},
        "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
        "theorems": ["quadratic_up"],
        "negative_control": {"q_scale": 1.1},
    }
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(path), "--out-dir", str(out)])
    doc = json.loads((out / "report.json").read_text())
    violations = doc["verification"][0]["violations"]
    _verdict(7, code == 1 and violations >= 1, f"exit code {code}, {violations} violations")


def test_criterion_8_scaling_criterion_agreement():
    # the exact check against the scaling inequality sampled on the y-set of
    # each scheme's own theorem at every (x, a)
    rng = np.random.default_rng(808)
    xs = [V(v) for v in (0.4, 1.0, 2.2, -1.3)]

    def draw(family):
        alpha = float(rng.uniform(0.05, 9.0))
        if family == "constant":
            return ConstantControl(delta=float(rng.uniform(0.0, 2.0)), alpha=alpha)
        if family == "power":
            return PowerControl(theta=float(rng.uniform(0.1, 2.0)), p=float(rng.uniform(0.0, 3.5)), alpha=alpha)
        return ProductControl(
            theta=float(rng.uniform(0.1, 2.0)),
            p1=float(rng.uniform(0.0, 2.0)),
            p2=float(rng.uniform(0.0, 2.0)),
            alpha=alpha,
        )

    total = agreed = 0
    for family in ("constant", "power", "product"):
        for scheme in Scheme:
            for _ in range(10):
                phi = draw(family)
                # None: an alpha outside the scheme's interval is rejected
                sampled = reference_scaling_alpha_check(phi, scheme, xs, log_a_grid())
                want = None if sampled.reason.startswith("alpha out of range") else sampled.ok
                try:
                    got = scaling_alpha_check(phi, scheme) >= 0.0
                except ValueError:
                    got = None
                total += 1
                agreed += got == want
    _verdict(8, agreed == total, f"{agreed}/{total} exact verdicts match the sampled check")


def test_criterion_9_uniqueness_surrogate():
    suite = [
        (Scheme.QUADRATIC_UP, TestFunction.scalar(quad=1.0, perturbations=(Perturbation(shape="sin", amplitude=0.1),))),
        (Scheme.QUADRATIC_UP, QUAD_COS),
        (Scheme.ADDITIVE_UP, LIN_SIN),
        (Scheme.QUADRATIC_UP, even_part(MIXED)),
        (Scheme.ADDITIVE_UP, odd_part(MIXED)),
        (Scheme.QUADRATIC_UP, TestFunction.scalar(quad=3.0)),
        (Scheme.QUADRATIC_DOWN, TestFunction.scalar(quad=3.0)),
        (Scheme.ADDITIVE_UP, TestFunction.scalar(linear=2.0)),
        (Scheme.ADDITIVE_DOWN, TestFunction.scalar(linear=2.0)),
    ]
    worst = 0.0
    ok = True
    for scheme, f in suite:
        for x in (0.7, 1.0, 1.9):
            res = uniqueness_crosscheck(scheme, f, V(x), (15, 25), (26, 40), tol=1e-8)
            ok = ok and bool(res)
            if np.isfinite(res.distance):
                worst = max(worst, res.distance)
    _verdict(9, ok, f"all window pairs agree; worst distance {worst:.2e} (tol 1e-8)")


def test_criterion_10_determinism(tmp_path):
    config = {
        "seed": 31337,
        "space": {"dim_x": 1, "dim_y": 1},
        "function": {"quad": 1.0, "linear": 2.0, "perturbations": [{"shape": "sin", "amplitude": 0.01}]},
        "control": {"family": "constant", "delta": "auto", "alpha": 1.0},
        "theorems": ["combined"],
        "grids": {"x_count": 10, "a_points": 15, "axiom_points": 60},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    code1 = cli_main(["run", "--config", str(path), "--out-dir", str(out1)])
    code2 = cli_main(["run", "--config", str(path), "--out-dir", str(out2)])
    names = sorted(p.name for p in out1.iterdir())
    identical = names == sorted(p.name for p in out2.iterdir()) and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    _verdict(10, code1 == code2 and identical, f"{len(names)} report files byte-identical")
