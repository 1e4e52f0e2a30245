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
"""

from dataclasses import replace

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
