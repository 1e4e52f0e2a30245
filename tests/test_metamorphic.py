"""Exact relations between runs of the pipeline on related configs.

Negating every linear part and every perturbation frequency of f gives the
map x -> f(-x): negation is exact, so each even term keeps its bits and each
odd term changes sign.  The quadratic schemes take the even part of f - f(0)
and the additive schemes its odd part, so on the mirrored f each quadratic
limit must keep its bits and each additive limit must change sign, bit for
bit, with the same ``n_used``, ``converged`` and ``stopped_reason``.  The
relation holds wherever the schemes run on the even and odd parts:
``additive_down_2d`` runs one additive scheme on f itself, whose quadratic
part does not change sign, so it is left out by construction.

Scaling f by 2^k, each of its quadratic, linear and constant parts and
each perturbation amplitude, is exact too, and every scheme iterate is
linear in f: every limit must scale by 2^k bit for bit, with the same
``n_used``, ``converged``, ``stopped_reason`` and ``ratio_estimate``.  The
relation holds today on f's polynomial part alone; the cells where the
stop rule's absolute floor breaks it are strict expected failures, each
naming the ROADMAP items meant to fix it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from test_golden import CASES, _config_path

from fuzzystab.funceq import TestFunction
from fuzzystab.harness import ExperimentConfig, run_pipeline

#: Golden cases whose schemes run on the even and odd parts of f.
MIRRORED_CASES = [case for case in CASES if case != "additive_down_2d"]


def _mirrored(f: TestFunction) -> TestFunction:
    """x -> f(-x): every linear part and every perturbation frequency negated."""
    coords = tuple(c if c.linear is None else replace(c, linear=-c.linear) for c in f.coords)
    perturbations = tuple(
        replace(
            p,
            frequency=(
                tuple(-w for w in p.frequency)
                if isinstance(p.frequency, tuple)
                else -p.frequency
            ),
        )
        for p in f.perturbations
    )
    return TestFunction(coords=coords, perturbations=perturbations, dim_x=f.dim_x)


@pytest.mark.parametrize("case", MIRRORED_CASES)
def test_mirrored_function_keeps_quadratic_and_negates_additive_limits(case, tmp_path):
    cfg = ExperimentConfig.load(_config_path(case, tmp_path))
    plain = run_pipeline(cfg, ("extraction",))
    mirrored = run_pipeline(replace(cfg, function=_mirrored(cfg.function)), ("extraction",))
    assert plain.x_norms == mirrored.x_norms
    assert len(plain.extractions) == len(mirrored.extractions) > 0
    for table, image in zip(plain.extractions, mirrored.extractions):
        assert (image.theorem_id, image.component) == (table.theorem_id, table.component)
        sign = 1.0 if table.component == "quadratic" else -1.0
        assert image.limits.tobytes() == (sign * table.limits).tobytes()
        for column in ("n_used", "converged", "stopped_reason"):
            assert getattr(image, column) == getattr(table, column)


def _scaled(f: TestFunction, k: int, perturbed: bool) -> TestFunction:
    """2^k f, exactly: each quadratic, linear and constant part and each
    perturbation amplitude times 2^k; f's perturbations are dropped unless
    ``perturbed``."""
    coords = tuple(
        replace(
            c,
            quad=None if c.quad is None else np.ldexp(c.quad, k),
            linear=None if c.linear is None else np.ldexp(c.linear, k),
            const=math.ldexp(c.const, k),
        )
        for c in f.coords
    )
    perturbations = tuple(
        replace(
            p,
            amplitude=(
                tuple(math.ldexp(a, k) for a in p.amplitude)
                if isinstance(p.amplitude, tuple)
                else math.ldexp(p.amplitude, k)
            ),
        )
        for p in f.perturbations
        if perturbed
    )
    return TestFunction(coords=coords, perturbations=perturbations, dim_x=f.dim_x)


#: Golden cases whose f scales exactly: f = x^2 of ``defect_overflow``
#: overflows its stop rule already at k = 0.
SCALED_CASES = [case for case in CASES if case != "defect_overflow"]

#: The exponents k of the scalings 2^k f.
SCALES = (-30, 30)

#: Why a scaled run stops at another n, by the ROADMAP items meant to fix it.
FLOOR_ON_Q = (
    "ROADMAP items 14 and 24: the additive scheme runs on f's quadratic part, "
    "and the stop rule's absolute floor stops it"
)
FLOOR_ON_PERTURBATION = (
    "ROADMAP items 14 and 21: the stop rule's absolute floor moves the stop "
    "of a perturbed f with its scale"
)


def _scaling_cells() -> list:
    """One cell per case, k and perturbation; ``combined`` perturbed at k =
    -30 is pinned by test_known_defects.py's scale-free stop."""
    cells = []
    for case in SCALED_CASES:
        for k in SCALES:
            for perturbed in (False, True):
                if perturbed and (case, k) == ("combined", -30):
                    continue
                reason = (
                    FLOOR_ON_PERTURBATION
                    if perturbed
                    else FLOOR_ON_Q if case == "additive_down_2d" else None
                )
                marks = (
                    pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
                    if reason
                    else ()
                )
                name = f"{case}-2^{k}-{'perturbed' if perturbed else 'polynomial'}"
                cells.append(pytest.param(case, k, perturbed, marks=marks, id=name))
    return cells


@pytest.mark.parametrize("case, k, perturbed", _scaling_cells())
def test_scaling_f_by_a_power_of_two_scales_each_limit_exactly(case, k, perturbed, tmp_path):
    cfg = ExperimentConfig.load(_config_path(case, tmp_path))
    plain, scaled = (
        run_pipeline(replace(cfg, function=_scaled(cfg.function, j, perturbed)), ("extraction",))
        for j in (0, k)
    )
    assert len(plain.extractions) == len(scaled.extractions) > 0
    for table, image in zip(plain.extractions, scaled.extractions):
        assert (image.theorem_id, image.component) == (table.theorem_id, table.component)
        for column in ("n_used", "converged", "stopped_reason", "ratio_estimate"):
            assert getattr(image, column) == getattr(table, column)
        assert image.limits.tobytes() == np.ldexp(table.limits, k).tobytes()
