"""Config-driven verification pipeline and machine-readable reports.

A JSON config describes the space, the test function, the control function,
and the bounds to verify.  The pipeline runs axiom checks, hypothesis
checks, component extraction and bound verification, then serializes the
result as one JSON document or one CSV file per section.  Runs are
deterministic: a fixed seed yields byte-identical report files.

Exit-status contract (also recorded inside the JSON report):
    0  zero violations and every requested extraction converged
    1  violations present or an extraction failed to converge
    2  invalid configuration
    3  scale/overflow error during extraction
    4  unwritable output path
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .control import (
    THEOREMS,
    ConstantControl,
    ControlFunction,
    PowerControl,
    ProductControl,
    REPAIR_DESCRIPTIONS,
    StabilityReport,
    defect_premise_margin,
    measure_residual_sup,
    premise_pairs,
    scaling_alpha_check,
    vanishing_check,
    verify_stability,
)
from .errors import ConfigError, ScaleError
from .extraction import MAX_STEPS, ExtractedComponent, ExtractionResult
from .funceq import (
    CoordinatePoly,
    PERTURBATION_SHAPES,
    Perturbation,
    TestFunction,
    even_part,
    odd_part,
    remove_offset,
)
from .spaces import (
    AxiomCheck,
    FuzzyNorm,
    SpaceConfig,
    check_axioms,
    default_axiom_samples,
    euclidean_norm,
    log_a_grid,
    sample_ball,
)

__all__ = [
    "EXIT_OK",
    "EXIT_VIOLATIONS",
    "EXIT_CONFIG",
    "EXIT_SCALE",
    "EXIT_OUTPUT",
    "ALL_STAGES",
    "ExperimentConfig",
    "HypothesisRow",
    "ExtractionRow",
    "RunReport",
    "run_pipeline",
    "emit_report",
]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_SCALE = 3
EXIT_OUTPUT = 4

ALL_STAGES = ("axioms", "hypothesis", "extraction", "verification")


def _require(data: dict, key: str, loc: str):
    if key not in data:
        raise ConfigError(loc, f"missing required key {key!r}")
    return data[key]


def _as_int(
    value, loc: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(loc, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(loc, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(loc, f"must be <= {maximum}, got {value}")
    return value


def _as_float(value, loc: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(loc, f"expected a number, got {value!r}")
    v = float(value)
    if positive and v <= 0:
        raise ConfigError(loc, f"must be > 0, got {v}")
    return v


@dataclass(frozen=True)
class ControlSpec:
    """Raw control selection; ``delta='auto'`` defers sizing to the pipeline."""

    family: str
    alpha: float
    delta: float | None = None
    auto_delta: bool = False
    theta: float = 0.0
    p: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def build(self, delta_override: float | None = None) -> ControlFunction:
        if self.family == "constant":
            delta = delta_override if delta_override is not None else self.delta
            if delta is None:
                raise ValueError("constant control needs a resolved delta")
            return ConstantControl(delta=delta, alpha=self.alpha)
        if self.family == "power":
            return PowerControl(theta=self.theta, p=self.p, alpha=self.alpha)
        return ProductControl(theta=self.theta, p1=self.p1, p2=self.p2, alpha=self.alpha)


def _parse_space(data: dict, loc: str) -> SpaceConfig:
    dim_x = _as_int(_require(data, "dim_x", loc), f"{loc}.dim_x", minimum=1)
    dim_y = _as_int(_require(data, "dim_y", loc), f"{loc}.dim_y", minimum=1)
    kind = data.get("crisp_norm", "euclidean")
    weights = data.get("weights")
    try:
        return SpaceConfig(
            dim_x=dim_x,
            dim_y=dim_y,
            crisp_norm_kind=kind,
            weights=tuple(weights) if weights is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(loc, str(exc)) from exc


def _parse_matrix(value, dim: int, loc: str) -> np.ndarray | None:
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim, dim):
        raise ConfigError(loc, f"expected a {dim}x{dim} matrix, got shape {arr.shape}")
    return arr


def _parse_vector(value, dim: int, loc: str) -> np.ndarray | None:
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim,):
        raise ConfigError(loc, f"expected a vector of length {dim}, got shape {arr.shape}")
    return arr


def _parse_perturbations(items, space: SpaceConfig, loc: str) -> tuple[Perturbation, ...]:
    out = []
    for i, item in enumerate(items or []):
        ploc = f"{loc}[{i}]"
        shape = _require(item, "shape", ploc)
        if shape not in PERTURBATION_SHAPES:
            raise ConfigError(f"{ploc}.shape", f"unknown shape {shape!r}")
        amplitude = item.get("amplitude", 0.0)
        if isinstance(amplitude, list):
            if len(amplitude) != space.dim_y:
                raise ConfigError(f"{ploc}.amplitude", f"expected {space.dim_y} amplitudes")
            amplitude = tuple(float(v) for v in amplitude)
        else:
            amplitude = _as_float(amplitude, f"{ploc}.amplitude")
        frequency = item.get("frequency", 1.0)
        if isinstance(frequency, list):
            if len(frequency) != space.dim_x:
                raise ConfigError(f"{ploc}.frequency", f"expected {space.dim_x} frequencies")
            frequency = tuple(float(v) for v in frequency)
        else:
            frequency = _as_float(frequency, f"{ploc}.frequency")
        try:
            out.append(Perturbation(shape=shape, amplitude=amplitude, frequency=frequency))
        except ValueError as exc:
            raise ConfigError(ploc, str(exc)) from exc
    return tuple(out)


def _parse_function(data: dict, space: SpaceConfig, loc: str) -> TestFunction:
    perturbations = _parse_perturbations(data.get("perturbations"), space, f"{loc}.perturbations")
    if "coords" in data:
        coords = []
        entries = data["coords"]
        if len(entries) != space.dim_y:
            raise ConfigError(f"{loc}.coords", f"expected {space.dim_y} coordinate entries")
        for j, entry in enumerate(entries):
            cloc = f"{loc}.coords[{j}]"
            coords.append(
                CoordinatePoly(
                    quad=_parse_matrix(entry.get("quad"), space.dim_x, f"{cloc}.quad"),
                    linear=_parse_vector(entry.get("linear"), space.dim_x, f"{cloc}.linear"),
                    const=_as_float(entry.get("const", 0.0), f"{cloc}.const"),
                )
            )
        return TestFunction(coords=tuple(coords), perturbations=perturbations, dim_x=space.dim_x)
    if space.dim_x != 1 or space.dim_y != 1:
        raise ConfigError(loc, "scalar shorthand requires dim_x == dim_y == 1 (use 'coords')")
    return TestFunction.scalar(
        quad=_as_float(data.get("quad", 0.0), f"{loc}.quad"),
        linear=_as_float(data.get("linear", 0.0), f"{loc}.linear"),
        const=_as_float(data.get("const", 0.0), f"{loc}.const"),
        perturbations=perturbations,
    )


def _parse_control(data: dict, loc: str) -> ControlSpec:
    family = _require(data, "family", loc)
    alpha = _as_float(_require(data, "alpha", loc), f"{loc}.alpha", positive=True)
    if family == "constant":
        delta = _require(data, "delta", loc)
        if delta == "auto":
            return ControlSpec(family=family, alpha=alpha, auto_delta=True)
        return ControlSpec(family=family, alpha=alpha, delta=_as_float(delta, f"{loc}.delta"))
    if family == "power":
        return ControlSpec(
            family=family,
            alpha=alpha,
            theta=_as_float(_require(data, "theta", loc), f"{loc}.theta"),
            p=_as_float(_require(data, "p", loc), f"{loc}.p"),
        )
    if family == "product":
        return ControlSpec(
            family=family,
            alpha=alpha,
            theta=_as_float(_require(data, "theta", loc), f"{loc}.theta"),
            p1=_as_float(_require(data, "p1", loc), f"{loc}.p1"),
            p2=_as_float(_require(data, "p2", loc), f"{loc}.p2"),
        )
    raise ConfigError(f"{loc}.family", f"unknown control family {family!r}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    seed: int
    space: SpaceConfig
    function: TestFunction
    control: ControlSpec
    theorems: tuple[str, ...]
    x_count: int = 20
    x_radius: float = 2.0
    a_min: float = 1e-3
    a_max: float = 1e3
    a_points: int = 25
    axiom_points: int = 200
    extraction_tol: float = 1e-9
    n_max: int = 40
    membership_slack: float = 1e-12
    fuzzy_tol: float = 0.01
    vanishing_probe: int = 30
    q_scale: float = 1.0

    @classmethod
    def from_dict(cls, data: dict, source: str = "config") -> "ExperimentConfig":
        seed = _as_int(data.get("seed", 0), f"{source}: seed")
        space = _parse_space(_require(data, "space", f"{source}: space"), f"{source}: space")
        function = _parse_function(
            _require(data, "function", f"{source}: function"), space, f"{source}: function"
        )
        control = _parse_control(
            _require(data, "control", f"{source}: control"), f"{source}: control"
        )
        theorems = _require(data, "theorems", f"{source}: theorems")
        if not isinstance(theorems, list) or not theorems:
            raise ConfigError(f"{source}: theorems", "expected a non-empty list")
        for t in theorems:
            if t not in THEOREMS:
                raise ConfigError(
                    f"{source}: theorems",
                    f"unknown theorem id {t!r}; valid: {sorted(THEOREMS)}",
                )
            for scheme in THEOREMS[t].schemes:
                if not scheme.admits_alpha(control.alpha):
                    raise ConfigError(
                        f"{source}: control.alpha",
                        f"alpha out of range {scheme.interval_label} for {scheme.value}",
                    )
        grids = data.get("grids", {})
        tolerances = data.get("tolerances", {})
        negative = data.get("negative_control", {})
        a_min = _as_float(grids.get("a_min", 1e-3), f"{source}: grids.a_min", positive=True)
        a_max = _as_float(grids.get("a_max", 1e3), f"{source}: grids.a_max", positive=True)
        if a_max <= a_min:
            raise ConfigError(f"{source}: grids.a_max", "a_max must exceed a_min")
        return cls(
            seed=seed,
            space=space,
            function=function,
            control=control,
            theorems=tuple(theorems),
            x_count=_as_int(grids.get("x_count", 20), f"{source}: grids.x_count", minimum=1),
            x_radius=_as_float(grids.get("x_radius", 2.0), f"{source}: grids.x_radius", positive=True),
            a_min=a_min,
            a_max=a_max,
            a_points=_as_int(grids.get("a_points", 25), f"{source}: grids.a_points", minimum=1),
            axiom_points=_as_int(
                grids.get("axiom_points", 200), f"{source}: grids.axiom_points", minimum=1
            ),
            extraction_tol=_as_float(
                tolerances.get("extraction_tol", 1e-9),
                f"{source}: tolerances.extraction_tol",
                positive=True,
            ),
            n_max=_as_int(
                tolerances.get("n_max", 40),
                f"{source}: tolerances.n_max",
                minimum=2,
                maximum=MAX_STEPS,
            ),
            membership_slack=_as_float(
                tolerances.get("membership_slack", 1e-12),
                f"{source}: tolerances.membership_slack",
                positive=True,
            ),
            fuzzy_tol=_as_float(
                tolerances.get("fuzzy_tol", 0.01), f"{source}: tolerances.fuzzy_tol", positive=True
            ),
            vanishing_probe=_as_int(
                tolerances.get("vanishing_probe", 30),
                f"{source}: tolerances.vanishing_probe",
                minimum=1,
            ),
            q_scale=_as_float(negative.get("q_scale", 1.0), f"{source}: negative_control.q_scale"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(str(path), f"cannot read config: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
        if not isinstance(data, dict):
            raise ConfigError(str(path), "top-level config must be a JSON object")
        return cls.from_dict(data, source=str(path))

    def a_grid(self) -> tuple[float, ...]:
        return log_a_grid(self.a_min, self.a_max, self.a_points)


@dataclass(frozen=True)
class HypothesisRow:
    theorem_id: str
    check: str
    passed: bool
    worst_slack: float
    note: str = ""


@dataclass(frozen=True, eq=False)
class ExtractionRow:
    theorem_id: str
    component: str
    x_index: int
    x_norm: float
    limit: tuple[float, ...]
    limit_norm: float
    n_used: int
    converged: bool
    ratio_estimate: float
    stopped_reason: str


@dataclass(eq=False)
class RunReport:
    """Aggregated pipeline output; sections for stages not run stay empty."""

    seed: int
    stages: tuple[str, ...]
    axiom_rows: list[tuple[str, AxiomCheck]] = field(default_factory=list)
    hypothesis_rows: list[HypothesisRow] = field(default_factory=list)
    extraction_rows: list[ExtractionRow] = field(default_factory=list)
    verification_reports: list[StabilityReport] = field(default_factory=list)
    repair_log: list[tuple[str, str]] = field(default_factory=list)
    resolved_delta: float | None = None
    #: Crisp norm of each sample point (``norm_x`` of the space), by ``x_index``.
    x_norms: list[float] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        axiom_bad = sum(
            c.violations for _, c in self.axiom_rows if c.status == "checked" and not c.passed
        )
        stability_bad = sum(r.violations for r in self.verification_reports)
        return axiom_bad + stability_bad

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.extraction_rows)

    @property
    def exit_status(self) -> int:
        if self.total_violations > 0 or not self.all_converged:
            return EXIT_VIOLATIONS
        return EXIT_OK


@dataclass(frozen=True, eq=False)
class _ScaledComponent:
    """Deliberately mis-scaled component used as a negative control."""

    source: Callable[[np.ndarray], np.ndarray]
    factor: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.factor * np.asarray(self.source(x), dtype=float)


def _extract_for_theorem(
    cfg: ExperimentConfig,
    theorem_id: str,
    xs: Sequence[np.ndarray],
):
    """Extract the component(s) a theorem needs from the offset-free function.

    Returns (components-for-verification, list of (component_name, x, result)).
    """
    spec = THEOREMS[theorem_id]
    shifted, _ = remove_offset(cfg.function)
    diagnostics: list[tuple[str, np.ndarray, ExtractionResult]] = []

    def run_at(component: ExtractedComponent, x) -> ExtractionResult:
        try:
            return component.extraction_at(x)
        except ScaleError as exc:
            raise ScaleError(
                f"{exc} at x={np.asarray(x, float).tolist()} (theorem {theorem_id})",
                scheme=exc.scheme,
                n=exc.n,
            ) from exc

    if spec.is_combined:
        q = ExtractedComponent(
            scheme=spec.schemes[0],
            source=even_part(shifted),
            tol=cfg.extraction_tol,
            n_max=cfg.n_max,
        )
        a = ExtractedComponent(
            scheme=spec.schemes[1],
            source=odd_part(shifted),
            tol=cfg.extraction_tol,
            n_max=cfg.n_max,
        )
        for x in xs:
            diagnostics.append(("quadratic", np.asarray(x, float), run_at(q, x)))
        for x in xs:
            diagnostics.append(("additive", np.asarray(x, float), run_at(a, x)))
        q_out = _ScaledComponent(q, cfg.q_scale) if cfg.q_scale != 1.0 else q
        return (q_out, a), diagnostics
    scheme = spec.schemes[0]
    name = "quadratic" if scheme.is_quadratic else "additive"
    comp = ExtractedComponent(
        scheme=scheme, source=shifted, tol=cfg.extraction_tol, n_max=cfg.n_max
    )
    for x in xs:
        diagnostics.append((name, np.asarray(x, float), run_at(comp, x)))
    out = comp
    if scheme.is_quadratic and cfg.q_scale != 1.0:
        out = _ScaledComponent(comp, cfg.q_scale)
    return out, diagnostics


def _finite_norms(rows: Callable[[np.ndarray], np.ndarray], v: np.ndarray) -> list[float]:
    """Norms of the rows of ``v`` by a crisp norm's row form.

    A row of finite entries whose norm overflows in the squares is scaled by
    a power of two before it is normed again, so it gets its finite norm if
    it has one; every other row keeps the row form's bits.
    """
    with np.errstate(over="ignore"):
        norms = rows(v)
        redo = ~np.isfinite(norms) & np.isfinite(v).all(axis=-1)
        if redo.any():
            _, exp = np.frexp(np.max(np.abs(v[redo]), axis=-1))
            norms[redo] = np.ldexp(rows(np.ldexp(v[redo], -exp[:, None])), exp)
    return norms.tolist()


def run_pipeline(cfg: ExperimentConfig, stages: Sequence[str] = ALL_STAGES) -> RunReport:
    """Execute the requested pipeline stages in order.

    Stage dependencies are implicit: verification extracts whatever it needs
    even when the extraction section was not requested; sections are only
    populated for requested stages.
    """
    stages = tuple(s for s in ALL_STAGES if s in stages)
    report = RunReport(seed=cfg.seed, stages=stages)
    ss = np.random.SeedSequence(cfg.seed)
    seed_axioms, seed_x, seed_premise = ss.spawn(3)

    norm_y = cfg.space.norm_y()
    norm_x = cfg.space.norm_x()
    N = FuzzyNorm.induced(norm_y)
    nprime = FuzzyNorm.induced(euclidean_norm)  # scalar control codomain
    a_values = cfg.a_grid()

    rng_x = np.random.default_rng(seed_x)
    xs = [sample_ball(rng_x, cfg.space.dim_x, cfg.x_radius) for _ in range(cfg.x_count)]
    report.x_norms = _finite_norms(norm_x.rows, np.array(xs))

    if "axioms" in stages:
        points, scalars = default_axiom_samples(
            cfg.space.dim_y,
            count=cfg.axiom_points,
            radius=cfg.x_radius,
            seed=int(seed_axioms.generate_state(1)[0]),
            a_grid=a_values,
        )
        for check in check_axioms(
            N, points, scalars, slack=cfg.membership_slack, tolerance=cfg.fuzzy_tol
        ).checks:
            report.axiom_rows.append(("N", check))
        scalar_points = [(np.atleast_1d(v), a) for (v, a) in points if v.size == 1]
        if not scalar_points:
            scalar_rng = np.random.default_rng(int(seed_axioms.generate_state(2)[1]))
            scalar_points = [
                (scalar_rng.normal(size=1) * cfg.x_radius, float(a))
                for a in a_values
                for _ in (0, 1)
            ]
        for check in check_axioms(
            nprime, scalar_points, scalars, slack=cfg.membership_slack, tolerance=cfg.fuzzy_tol
        ).checks:
            report.axiom_rows.append(("N'", check))

    shifted, _ = remove_offset(cfg.function)

    needs_controls = "hypothesis" in stages or "verification" in stages
    premise_by_theorem: dict[str, list] = {}
    phi: ControlFunction | None = None
    if needs_controls:
        premise_rngs = seed_premise.spawn(len(cfg.theorems))
        for t, child in zip(cfg.theorems, premise_rngs):
            premise_by_theorem[t] = premise_pairs(
                THEOREMS[t], xs, np.random.default_rng(child), radius=cfg.x_radius
            )
        delta = None
        if cfg.control.auto_delta:
            all_pairs = [p for t in cfg.theorems for p in premise_by_theorem[t]]
            delta = measure_residual_sup(shifted, all_pairs, norm=norm_y)
            report.resolved_delta = delta
        phi = cfg.control.build(delta)

    if "hypothesis" in stages:
        for t in cfg.theorems:
            spec = THEOREMS[t]
            for scheme in spec.schemes:
                check = scaling_alpha_check(
                    phi,
                    scheme,
                    nprime,
                    xs,
                    a_grid=a_values,
                    norm=norm_x,
                    slack=cfg.membership_slack,
                    y_override=spec.y_set if spec.is_combined else None,
                )
                report.hypothesis_rows.append(
                    HypothesisRow(
                        theorem_id=t,
                        check=f"alpha_scaling[{scheme.value}]",
                        passed=check.ok,
                        worst_slack=check.worst_slack,
                        note=check.reason,
                    )
                )
                vanished = vanishing_check(
                    phi,
                    scheme,
                    nprime,
                    premise_by_theorem[t],
                    cfg.vanishing_probe,
                    a_grid=a_values,
                    tol=cfg.fuzzy_tol,
                    norm=norm_x,
                )
                report.hypothesis_rows.append(
                    HypothesisRow(
                        theorem_id=t,
                        check=f"vanishing[{scheme.value}]",
                        passed=vanished,
                        worst_slack=0.0,
                        note="" if vanished else "rescaled control membership below 1 - tol",
                    )
                )
            worst, _ = defect_premise_margin(
                shifted, phi, N, nprime, premise_by_theorem[t], a_values, norm_x
            )
            report.hypothesis_rows.append(
                HypothesisRow(
                    theorem_id=t,
                    check="defect_premise",
                    passed=worst >= -cfg.membership_slack,
                    worst_slack=worst,
                )
            )

    components_by_theorem: dict[str, object] = {}
    if "extraction" in stages or "verification" in stages:
        for t in cfg.theorems:
            components, diagnostics = _extract_for_theorem(cfg, t, xs)
            components_by_theorem[t] = components
            if "extraction" in stages:
                limits = np.array([result.limit_value for _, _, result in diagnostics])
                index_by_name: dict[str, int] = {}
                for (name, _, result), limit, limit_norm in zip(
                    diagnostics, limits.tolist(), _finite_norms(norm_y.rows, limits)
                ):
                    i = index_by_name.get(name, 0)
                    index_by_name[name] = i + 1
                    report.extraction_rows.append(
                        ExtractionRow(
                            theorem_id=t,
                            component=name,
                            x_index=i,
                            x_norm=report.x_norms[i],
                            limit=tuple(limit),
                            limit_norm=limit_norm,
                            n_used=result.n_used,
                            converged=result.converged,
                            ratio_estimate=result.ratio_estimate,
                            stopped_reason=result.stopped_reason,
                        )
                    )

    if "verification" in stages:
        seen_repairs: set[str] = set()
        for t in cfg.theorems:
            result = verify_stability(
                shifted,
                components_by_theorem[t],
                phi,
                cfg.control.alpha,
                t,
                xs,
                a_values,
                N,
                nprime,
                norm=norm_x,
                slack=cfg.membership_slack,
                premise=premise_by_theorem[t],
            )
            report.verification_reports.append(result)
            for repair in result.repairs:
                if repair not in seen_repairs:
                    seen_repairs.add(repair)
                    report.repair_log.append((repair, REPAIR_DESCRIPTIONS[repair]))

    return report


# --- serialization ---------------------------------------------------------
#
# Each section is one table of fields.  A field names its key, how its
# values print, and how it takes its column of values from the section's
# rows; the same table writes the section into report.json and into its CSV
# file, one column at a time.

_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _float_texts(values: Iterable[float]) -> list[str]:
    """Floats at 17 significant digits; non-finite ones read nan, inf and -inf."""
    return ["%.17g" % v for v in values]


def _json_floats(values: Iterable[float]) -> list[str]:
    """JSON numbers, with the non-finite ones as strings."""
    return [f'"{t}"' if t in _NON_FINITE else t for t in _float_texts(values)]


def _json_strings(values: Iterable[str]) -> list[str]:
    return list(map(encode_basestring_ascii, values))


def _json_array(items: list[str], depth: int) -> str:
    """JSON array of encoded items, one per line, its brackets ``depth`` deep."""
    if not items:
        return "[]"
    line = "\n" + "  " * (depth + 1)
    return "[" + line + ("," + line).join(items) + "\n" + "  " * depth + "]"


def _json_arrays(
    arrays: Sequence[Sequence], encode: Callable[[list], list[str]], depth: int
) -> list[str]:
    """JSON text of each array, the items of all of them encoded in one pass."""
    items = encode([item for array in arrays for item in array])
    out, start = [], 0
    for array in arrays:
        end = start + len(array)
        out.append(_json_array(items[start:end], depth))
        start = end
    return out


def _object_template(keys: Sequence[str], depth: int) -> str:
    """%-template of a JSON object with these keys, its braces ``depth`` deep."""
    line = "\n" + "  " * (depth + 1)
    body = ",".join(f"{line}{encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys)
    return "{" + body + "\n" + "  " * depth + "}"


class _Kind(NamedTuple):
    """How a column prints: ``json(values, depth)`` gives the JSON text of
    each value, its nested lines ``depth`` deep; ``csv(values)`` gives the
    cells, which the CSV writer turns into text with ``str``."""

    json: Callable[[list, int], list[str]]
    csv: Callable[[list], list]


def _same(values: list) -> list:
    return values


_STR = _Kind(lambda values, depth: _json_strings(values), _same)
_INT = _Kind(lambda values, depth: [str(int(v)) for v in values], _same)
_BOOL = _Kind(lambda values, depth: ["true" if v else "false" for v in values], _same)
_FLOAT = _Kind(lambda values, depth: _json_floats(values), _float_texts)
_FLOATS = _Kind(lambda values, depth: _json_arrays(values, _json_floats, depth), _same)
_STRS = _Kind(lambda values, depth: _json_arrays(values, _json_strings, depth), _same)

_Column = Callable[[Sequence, RunReport], list]


class _Field(NamedTuple):
    key: str
    kind: _Kind | None
    #: (rows, report) -> the field's value for each row.
    column: _Column
    in_json: bool = True
    in_csv: bool = True
    #: Fields of a value that is a list of sub-rows: JSON nests them under
    #: the key, CSV writes a line per sub-row led by the row's CSV fields.
    sub: tuple["_Field", ...] = ()


def _attr(name: str) -> _Column:
    get = attrgetter(name)
    return lambda rows, report: list(map(get, rows))


def _of_pair(position: int, name: str | None = None) -> _Column:
    """Column of a section whose rows are pairs: an item, or an attribute of it."""
    get = itemgetter(position) if name is None else (lambda row: getattr(row[position], name))
    return lambda rows, report: list(map(get, rows))


class _Section(NamedTuple):
    key: str
    rows: Callable[[RunReport], Sequence]
    fields: tuple[_Field, ...]


_SECTIONS = (
    _Section(
        "axioms",
        attrgetter("axiom_rows"),
        (
            _Field("norm", _STR, _of_pair(0)),
            _Field("axiom", _STR, _of_pair(1, "axiom")),
            _Field("status", _STR, _of_pair(1, "status")),
            _Field("passed", _BOOL, _of_pair(1, "passed")),
            _Field("violations", _INT, _of_pair(1, "violations")),
            _Field("worst_slack", _FLOAT, _of_pair(1, "worst_slack")),
            _Field("note", _STR, _of_pair(1, "note")),
        ),
    ),
    _Section(
        "hypothesis",
        attrgetter("hypothesis_rows"),
        (
            _Field("theorem_id", _STR, _attr("theorem_id")),
            _Field("check", _STR, _attr("check")),
            _Field("passed", _BOOL, _attr("passed")),
            _Field("worst_slack", _FLOAT, _attr("worst_slack")),
            _Field("note", _STR, _attr("note")),
        ),
    ),
    _Section(
        "extraction",
        attrgetter("extraction_rows"),
        (
            _Field("theorem_id", _STR, _attr("theorem_id")),
            _Field("component", _STR, _attr("component")),
            _Field("x_index", _INT, _attr("x_index")),
            _Field("x_norm", _FLOAT, _attr("x_norm")),
            _Field("limit", _FLOATS, _attr("limit"), in_csv=False),
            _Field("limit_norm", _FLOAT, _attr("limit_norm"), in_json=False),
            _Field("n_used", _INT, _attr("n_used")),
            _Field("converged", _BOOL, _attr("converged")),
            _Field("ratio_estimate", _FLOAT, _attr("ratio_estimate")),
            _Field("stopped_reason", _STR, _attr("stopped_reason")),
        ),
    ),
    _Section(
        "verification",
        attrgetter("verification_reports"),
        (
            _Field("theorem_id", _STR, _attr("theorem_id")),
            _Field("hypothesis_ok", _BOOL, _attr("hypothesis_ok"), in_csv=False),
            _Field("note", _STR, _attr("note"), in_csv=False),
            _Field("worst_slack", _FLOAT, _attr("worst_slack"), in_csv=False),
            _Field("violations", _INT, _attr("violations"), in_csv=False),
            _Field("repairs", _STRS, _attr("repairs"), in_csv=False),
            _Field(
                "rows",
                None,
                _attr("rows"),
                sub=(
                    _Field("x_index", _INT, _attr("x_index")),
                    _Field(
                        "x_norm",
                        _FLOAT,
                        lambda rows, report: [report.x_norms[r.x_index] for r in rows],
                    ),
                    _Field("a", _FLOAT, _attr("a")),
                    _Field("lhs", _FLOAT, _attr("lhs")),
                    _Field("rhs", _FLOAT, _attr("rhs")),
                    _Field("slack", _FLOAT, _attr("slack")),
                ),
            ),
        ),
    ),
    _Section(
        "repair_log",
        attrgetter("repair_log"),
        (
            _Field("repair_id", _STR, _of_pair(0)),
            _Field("description", _STR, _of_pair(1)),
        ),
    ),
)


def _json_table(fields: Sequence[_Field], rows: Sequence, report: RunReport, depth: int) -> str:
    """JSON array with one object per row, its brackets ``depth`` deep."""
    if not rows:
        return "[]"
    fields = [f for f in fields if f.in_json]
    template = _object_template([f.key for f in fields], depth + 1)
    columns = []
    for f in fields:
        values = f.column(rows, report)
        if f.sub:
            columns.append([_json_table(f.sub, sub, report, depth + 2) for sub in values])
        else:
            columns.append(f.kind.json(values, depth + 2))
    return _json_array([template % values for values in zip(*columns)], depth)


def _write_json(report: RunReport, fh) -> None:
    """Write report.json, one section at a time."""
    summary = {
        "violations": str(int(report.total_violations)),
        "all_converged": "true" if report.all_converged else "false",
    }
    if report.resolved_delta is not None:
        (summary["resolved_delta"],) = _json_floats([report.resolved_delta])
    stages = _json_array(_json_strings(report.stages), 1)
    fh.write(f'{{\n  "seed": {int(report.seed)},\n  "stages": {stages}')
    for section in _SECTIONS:
        fh.write(f',\n  "{section.key}": ')
        fh.write(_json_table(section.fields, section.rows(report), report, 1))
    fh.write(',\n  "summary": ')
    fh.write(_object_template(list(summary), 1) % tuple(summary.values()))
    fh.write(f',\n  "exit_status": {int(report.exit_status)}\n}}\n')


def _csv_table(section: _Section, report: RunReport) -> tuple[list[str], Iterable[tuple]]:
    """Header and lines of a section's CSV file."""
    rows = section.rows(report)
    fields = [f for f in section.fields if f.in_csv and not f.sub]
    columns = [f.kind.csv(f.column(rows, report)) for f in fields]
    nested = next((f for f in section.fields if f.in_csv and f.sub), None)
    if nested is not None:  # a line per sub-row, led by the row's fields
        groups = nested.column(rows, report)
        columns = [[v for v, g in zip(col, groups) for _ in g] for col in columns]
        rows = [sub for group in groups for sub in group]
        sub_fields = [f for f in nested.sub if f.in_csv]
        fields += sub_fields
        columns += [f.kind.csv(f.column(rows, report)) for f in sub_fields]
    return [f.key for f in fields], zip(*columns)


def emit_report(report: RunReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report as ``report.json`` or one CSV per section.

    Both come from one field table per section.  Floats are printed with 17
    significant digits; identical reports serialize to identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt == "json":
        path = out / "report.json"
        with path.open("w", encoding="utf-8") as fh:
            _write_json(report, fh)
        written.append(path)
    elif fmt == "csv":
        for section in _SECTIONS:
            path = out / f"{section.key}.csv"
            header, lines = _csv_table(section, report)
            with path.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(lines)
            written.append(path)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return written
