"""Config-driven verification pipeline and machine-readable reports.

A JSON config describes the space, the test function, the control function,
and the bounds to verify.  The pipeline runs axiom checks, hypothesis
checks, component extraction and bound verification, then serializes the
result as one JSON document or one CSV file per section.  Runs are
deterministic: a fixed seed yields byte-identical report files.

Exit-status contract (also recorded inside the JSON report):
    0  zero violations, every requested extraction converged, every hypothesis check passed
    1  violations present, an extraction failed to converge, or a hypothesis check failed
    2  invalid configuration
    3  scale/overflow error during extraction
    4  unwritable output path
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .control import (
    THEOREMS,
    ConstantControl,
    ControlFunction,
    Margin,
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
from .extraction import extract_components
from .funceq import (
    CoordinatePoly,
    PERTURBATION_SHAPES,
    Perturbation,
    TestFunction,
    remove_offset,
)
from .spaces import (
    AxiomCheck,
    CrispNorm,
    FuzzyNorm,
    SpaceConfig,
    check_axioms,
    default_axiom_samples,
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


def _number(value, loc: str, *, integer=False, above=None, minimum=None):
    """``value`` as an int if ``integer``, else as a finite float, within the
    bounds; ``above`` is strict.  A bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        what = "an integer" if integer else "a number"
        raise ConfigError(loc, f"expected {what}, got {value!r}")
    if not integer:
        if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int past every float
            raise ConfigError(loc, f"expected a finite number, got {value!r}")
        value = float(value)
    if above is not None and not value > above:
        raise ConfigError(loc, f"must be > {above}, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(loc, f"must be >= {minimum}, got {value}")
    return value


def _object(value, loc: str, keys: Sequence[str] | None, required: Sequence[str] = ()) -> dict:
    """``value`` as a JSON object with every ``required`` key and, unless
    ``keys`` is None, no key outside ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(loc, f"expected an object, got {value!r}")
    for key in value:
        if keys is not None and key not in keys:
            raise ConfigError(f"{loc}.{key}", "unknown key")
    for key in required:
        if key not in value:
            raise ConfigError(loc, f"missing required key {key!r}")
    return value


def _list(value, loc: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(loc, f"expected a list, got {value!r}")
    return value


def _amounts(value, loc: str, count: int, what: str) -> float | tuple[float, ...]:
    """A number, or a list of ``count`` numbers."""
    if not isinstance(value, list):
        return _number(value, loc)
    if len(value) != count:
        raise ConfigError(loc, f"expected {count} {what}")
    return tuple(_number(v, f"{loc}[{i}]") for i, v in enumerate(value))


def _array(value, loc: str, shape: tuple[int, ...], what: str) -> np.ndarray | None:
    """``value`` as a float array of ``shape``, or None for None."""
    if value is None:
        return None

    def read(v, at: str, depth: int):
        if not isinstance(v, list):
            return _number(v, at)
        if depth == len(shape):  # too deep: keep only the length, for the shape error
            return [0.0] * len(v)
        return [read(item, f"{at}[{i}]", depth + 1) for i, item in enumerate(v)]

    entries = read(value, loc, 0)
    try:
        arr = np.array(entries, dtype=float)
    except ValueError:  # nested lists of unequal lengths
        raise ConfigError(loc, f"expected {what}, got rows of unequal length") from None
    if arr.shape != shape:
        raise ConfigError(loc, f"expected {what}, got shape {arr.shape}")
    return arr


#: The keys of each config object but the knob sections, which are the
#: ``section`` of the knob fields of ``ExperimentConfig``.  Top-level keys
#: but ``seed`` are required.
_KEYS = {
    "": ("seed", "space", "function", "control", "theorems"),
    "space": ("dim_x", "dim_y", "crisp_norm", "weights"),
    "function": ("quad", "linear", "const", "coords", "perturbations"),
    "coords": ("quad", "linear", "const"),
    "perturbations": ("shape", "amplitude", "frequency"),
    "control": ("family", "alpha"),
}

#: Each control family: its class, and its keys besides those of ``_KEYS["control"]``.
_CONTROLS = {
    "constant": (ConstantControl, ("delta",)),
    "power": (PowerControl, ("theta", "p")),
    "product": (ProductControl, ("theta", "p1", "p2")),
}


def _space(value, loc: str) -> SpaceConfig:
    data = _object(value, loc, _KEYS["space"], ("dim_x", "dim_y"))
    dims = [_number(data[k], f"{loc}.{k}", integer=True, minimum=1) for k in ("dim_x", "dim_y")]
    weights, wloc = data.get("weights"), f"{loc}.weights"
    if weights is not None:
        weights = tuple(_number(w, f"{wloc}[{i}]") for i, w in enumerate(_list(weights, wloc)))
    try:
        return SpaceConfig(*dims, data.get("crisp_norm", "euclidean"), weights)
    except ValueError as exc:
        raise ConfigError(loc, str(exc)) from exc


def _function(value, space: SpaceConfig, loc: str) -> TestFunction:
    """The test function; an absent key keeps the default of the class it sets."""
    data = _object(value, loc, _KEYS["function"])
    counts = {"amplitude": (space.dim_y, "amplitudes"), "frequency": (space.dim_x, "frequencies")}
    perturbations = []
    for i, item in enumerate(_list(data.get("perturbations", []), f"{loc}.perturbations")):
        ploc = f"{loc}.perturbations[{i}]"
        item = _object(item, ploc, _KEYS["perturbations"], ("shape",))
        if item["shape"] not in PERTURBATION_SHAPES:
            raise ConfigError(f"{ploc}.shape", f"unknown shape {item['shape']!r}")
        amounts = {k: _amounts(item[k], f"{ploc}.{k}", *counts[k]) for k in counts if k in item}
        try:
            perturbations.append(Perturbation(item["shape"], **amounts))
        except ValueError as exc:
            raise ConfigError(ploc, str(exc)) from exc
    if "coords" not in data:
        if space.dim_x != 1 or space.dim_y != 1:
            raise ConfigError(loc, "scalar shorthand requires dim_x == dim_y == 1 (use 'coords')")
        terms = {k: _number(data[k], f"{loc}.{k}") for k in _KEYS["coords"] if k in data}
        return TestFunction.scalar(**terms, perturbations=tuple(perturbations))
    if shorthand := [k for k in _KEYS["coords"] if k in data]:
        raise ConfigError(f"{loc}.{shorthand[0]}", "scalar shorthand and 'coords' are exclusive")
    entries = _list(data["coords"], f"{loc}.coords")
    if len(entries) != space.dim_y:
        raise ConfigError(f"{loc}.coords", f"expected {space.dim_y} coordinate entries")
    d, coords = space.dim_x, []
    shapes = {"quad": ((d, d), f"a {d}x{d} matrix"), "linear": ((d,), f"a vector of length {d}")}
    for j, entry in enumerate(entries):
        cloc = f"{loc}.coords[{j}]"
        entry = _object(entry, cloc, _KEYS["coords"])
        terms = {k: _array(entry[k], f"{cloc}.{k}", *shapes[k]) for k in shapes if k in entry}
        if "const" in entry:
            terms["const"] = _number(entry["const"], f"{cloc}.const")
        coords.append(CoordinatePoly(**terms))
    return TestFunction(coords=tuple(coords), perturbations=tuple(perturbations), dim_x=d)


def _control(value, space: SpaceConfig, loc: str) -> tuple[ControlFunction, bool]:
    """The control function, and whether its ``delta`` is ``"auto"``: sized
    by the pipeline, and 0 until then.  A power or product control norms its
    arguments by the space's crisp norm."""
    family = _object(value, loc, None, ("family",))["family"]
    if family not in tuple(_CONTROLS):  # by equality: a JSON list is not hashable
        raise ConfigError(f"{loc}.family", f"unknown control family {family!r}")
    cls, keys = _CONTROLS[family]
    data = _object(value, loc, _KEYS["control"] + keys, ("alpha", *keys))
    auto_delta = data.get("delta") == "auto"
    numbers = dict(data, delta=0.0) if auto_delta else data
    params = {k: _number(numbers[k], f"{loc}.{k}") for k in keys}
    params["alpha"] = _number(data["alpha"], f"{loc}.alpha", above=0)
    if family != "constant":
        params["norm"] = space.norm()
    try:
        return cls(**params), auto_delta
    except ValueError as exc:  # the family's own bounds; each message opens with its key
        raise ConfigError(f"{loc}.{str(exc).split()[0]}", str(exc)) from exc


def _knob(section: str, default, **bounds):
    """Field read from ``<section>.<name>`` by ``_number`` within ``bounds``,
    as an integer if ``default`` is one."""
    number = dict(bounds, integer=type(default) is int)
    return field(default=default, metadata={"section": section, "number": number})


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    seed: int
    space: SpaceConfig
    function: TestFunction
    control: ControlFunction
    theorems: tuple[str, ...]
    #: ``control.delta`` is ``"auto"``: the pipeline sizes it.
    auto_delta: bool = False
    x_count: int = _knob("grids", 20, minimum=1)
    x_radius: float = _knob("grids", 2.0, above=0)
    a_points: int = _knob("grids", 25, minimum=1)
    axiom_points: int = _knob("grids", 200, minimum=1)
    q_scale: float = _knob("negative_control", 1.0)

    @classmethod
    def from_dict(cls, data: dict, source: str = "config") -> "ExperimentConfig":
        knobs = [f for f in fields(cls) if f.metadata]
        sections = dict.fromkeys(f.metadata["section"] for f in knobs)
        for key in data:
            if key not in _KEYS[""] + tuple(sections):
                raise ConfigError(f"{source}: {key}", "unknown key")
        for key in _KEYS[""][1:]:
            if key not in data:
                raise ConfigError(f"{source}: {key}", f"missing required key {key!r}")
        seed = _number(data.get("seed", 0), f"{source}: seed", integer=True, minimum=0)
        space = _space(data["space"], f"{source}: space")
        function = _function(data["function"], space, f"{source}: function")
        control, auto_delta = _control(data["control"], space, f"{source}: control")
        theorems, loc, valid = data["theorems"], f"{source}: theorems", sorted(THEOREMS)
        if not isinstance(theorems, list) or not theorems:
            raise ConfigError(loc, "expected a non-empty list")
        for t in theorems:
            if t not in valid:
                raise ConfigError(loc, f"unknown theorem id {t!r}; valid: {valid}")
            if theorems.count(t) > 1:
                raise ConfigError(loc, f"duplicate theorem id {t!r}")
            for scheme in THEOREMS[t].schemes:
                if not scheme.admits_alpha(control.alpha):
                    raise ConfigError(
                        f"{source}: control.alpha",
                        f"alpha out of range {scheme.interval_label} for {scheme.value}",
                    )
        values = {}
        for name in sections:
            section = [f for f in knobs if f.metadata["section"] == name]
            given = _object(data.get(name, {}), f"{source}: {name}", [f.name for f in section])
            for f in section:
                loc = f"{source}: {name}.{f.name}"
                values[f.name] = _number(given.get(f.name, f.default), loc, **f.metadata["number"])
        schemes = [scheme for t in theorems for scheme in THEOREMS[t].schemes]
        if values["q_scale"] != 1.0 and not any(scheme.is_quadratic for scheme in schemes):
            reason = "no listed theorem has a quadratic component to scale"
            raise ConfigError(f"{source}: negative_control.q_scale", reason)
        return cls(seed, space, function, control, tuple(theorems), auto_delta, **values)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(path), f"cannot read config: {exc}") from exc

        def unique_keys(pairs: list[tuple[str, object]]) -> dict:
            # json.loads alone keeps the last of two equal keys
            data = {}
            for key, value in pairs:
                if key in data:
                    raise ConfigError(str(path), f"duplicate key {key!r}")
                data[key] = value
            return data

        try:
            data = json.loads(text, object_pairs_hook=unique_keys)
            if not isinstance(data, dict):
                raise ConfigError(str(path), "top-level config must be a JSON object")
            return cls.from_dict(data, source=str(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
        except RecursionError:  # in the parser
            raise ConfigError(str(path), "cannot read config: nested too deeply") from None


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
    #: Crisp norm of each sample point (the space's ``norm()``), by ``x_index``.
    x_norms: list[float] = field(default_factory=list)
    #: The rows and norms ``emit_report`` last rendered, and the texts so far.
    _texts: tuple | None = field(default=None, init=False, repr=False)

    @property
    def total_violations(self) -> int:
        # counts may be numpy ints; summed as Python ints they cannot overflow
        axiom_bad = sum(
            int(c.violations) for _, c in self.axiom_rows if c.status == "checked" and not c.passed
        )
        stability_bad = sum(int(r.violations) for r in self.verification_reports)
        return axiom_bad + stability_bad

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.extraction_rows)

    @property
    def exit_status(self) -> int:
        hypotheses_hold = all(r.passed for r in self.hypothesis_rows) and all(
            r.hypothesis_ok for r in self.verification_reports
        )
        if self.total_violations > 0 or not self.all_converged or not hypotheses_hold:
            return EXIT_VIOLATIONS
        return EXIT_OK


@dataclass(frozen=True, eq=False)
class _ScaledComponent:
    """Deliberately mis-scaled component used as a negative control."""

    source: Callable[[np.ndarray], np.ndarray]
    factor: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.factor * np.asarray(self.source(x), dtype=float)


def _finite_norms(norm: CrispNorm, v: np.ndarray) -> list:
    """Norms of the vectors of ``v``, shape ``(..., d)``, by a crisp norm, as
    nested lists of shape ``(...)``.

    A row of finite entries whose norm overflows in the squares is scaled by
    a power of two before it is normed again, so it gets its finite norm if
    it has one; every other row keeps the norm's bits.
    """
    with np.errstate(over="ignore"):
        norms = norm(v)
        redo = ~np.isfinite(norms) & np.isfinite(v).all(axis=-1)
        if redo.any():
            _, exp = np.frexp(np.max(np.abs(v[redo]), axis=-1))
            norms[redo] = np.ldexp(norm(np.ldexp(v[redo], -exp[:, None])), exp)
    return norms.tolist()


def run_pipeline(cfg: ExperimentConfig, stages: Sequence[str] = ALL_STAGES) -> RunReport:
    """Execute the requested pipeline stages: the axiom audit, a control
    prelude, then one pass per theorem for its hypothesis rows, extraction
    and verification.  Verification extracts whatever it needs even when the
    extraction section was not requested; sections are only populated for
    requested stages.
    """
    stages = tuple(s for s in ALL_STAGES if s in stages)
    report = RunReport(seed=cfg.seed, stages=stages)
    ss = np.random.SeedSequence(cfg.seed)
    seed_axioms, seed_x, seed_premise = ss.spawn(3)

    norm = cfg.space.norm()
    N = FuzzyNorm.induced(norm)
    phi = cfg.control  # holds the N' its checks use, audited below
    a_values = log_a_grid(points=cfg.a_points)

    rng_x = np.random.default_rng(seed_x)
    xs = np.array([sample_ball(rng_x, cfg.space.dim_x, cfg.x_radius) for _ in range(cfg.x_count)])
    report.x_norms = _finite_norms(norm, xs)

    if "axioms" in stages:
        points, scalars = default_axiom_samples(
            cfg.space.dim_y,
            count=cfg.axiom_points,
            radius=cfg.x_radius,
            seed=int(seed_axioms.generate_state(1)[0]),
            a_grid=a_values,
        )
        for check in check_axioms(N, points, scalars):
            report.axiom_rows.append(("N", check))
        scalar_points = [(np.atleast_1d(v), a) for (v, a) in points if v.size == 1]
        if not scalar_points:
            scalar_rng = np.random.default_rng(int(seed_axioms.generate_state(2)[1]))
            scalar_points = [
                (scalar_rng.normal(size=1) * cfg.x_radius, float(a))
                for a in a_values
                for _ in (0, 1)
            ]
        for check in check_axioms(phi.nprime, scalar_points, scalars):
            report.axiom_rows.append(("N'", check))

    shifted, _ = remove_offset(cfg.function)

    # The prelude: every theorem's premise pairs, the auto-delta sup over all
    # of them, then each theorem's premise margin (for its hypothesis row and
    # its verification gate), all before any extraction.
    premise_by_theorem: dict[str, np.ndarray] = {}
    margin_by_theorem: dict[str, Margin] = {}
    if "hypothesis" in stages or "verification" in stages:
        premise_rngs = seed_premise.spawn(len(cfg.theorems))
        for t, child in zip(cfg.theorems, premise_rngs):
            premise_by_theorem[t] = premise_pairs(
                THEOREMS[t], xs, np.random.default_rng(child), radius=cfg.x_radius
            )
        if cfg.auto_delta:
            stacks = list(premise_by_theorem.values())
            all_pairs = stacks[0] if len(stacks) == 1 else np.concatenate(stacks, axis=1)
            report.resolved_delta = measure_residual_sup(shifted, all_pairs, norm=norm)
            phi = replace(phi, delta=report.resolved_delta)
        for t, pairs in premise_by_theorem.items():
            margin_by_theorem[t] = defect_premise_margin(shifted, phi, N, pairs, a_values)

    for t in cfg.theorems:
        schemes = THEOREMS[t].schemes
        if "hypothesis" in stages:
            rows = report.hypothesis_rows
            # decided from phi's degree, or failed by a non-finite auto-delta:
            # a failed row names that cause, not a witness
            delta = report.resolved_delta
            if delta is None or math.isfinite(delta):
                cause = f"degree {phi.degree:g}"
            else:
                cause = f"auto delta {delta:g}"
            for scheme in schemes:
                margin, holds = scaling_alpha_check(phi, scheme), vanishing_check(phi, scheme)
                scaled, name = margin >= 0.0, scheme.value
                note = "" if scaled else f"margin {margin:.3e} at {cause} and alpha {phi.alpha:g}"
                rows.append(HypothesisRow(t, f"alpha_scaling[{name}]", scaled, margin, note))
                note = "" if holds else f"{cause} at rate {scheme.rate:g}"
                rows.append(HypothesisRow(t, f"vanishing[{name}]", holds, 0.0, note))
            premise = margin_by_theorem[t]
            worst, witness = premise
            note = "" if premise.holds else f"margin {worst:.3e} at a={witness[2]:g}"
            rows.append(HypothesisRow(t, "defect_premise", premise.holds, worst, note))
        if "extraction" not in stages and "verification" not in stages:
            continue

        try:
            components, results = extract_components(shifted, schemes, xs)
        except ScaleError as exc:
            raise ScaleError(f"{exc} (theorem {t})", scheme=exc.scheme, n=exc.n) from exc
        if "extraction" in stages:
            limits = np.array([[result.limit_value for result in at_xs] for at_xs in results])
            for scheme, at_xs, listed, normed in zip(
                schemes, results, limits.tolist(), _finite_norms(norm, limits)
            ):
                name = "quadratic" if scheme.is_quadratic else "additive"
                for i, (result, limit, limit_norm) in enumerate(zip(at_xs, listed, normed)):
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
            if cfg.q_scale != 1.0:
                components = tuple(
                    _ScaledComponent(c, cfg.q_scale) if c.scheme.is_quadratic else c
                    for c in components
                )
            verified = verify_stability(
                shifted,
                components,
                phi,
                t,
                xs,
                a_values,
                N,
                premise_margin=margin_by_theorem[t],
            )
            report.verification_reports.append(verified)
            logged = {repair for repair, _ in report.repair_log}
            new = [repair for repair in verified.repairs if repair not in logged]
            report.repair_log += [(repair, REPAIR_DESCRIPTIONS[repair]) for repair in new]

    return report


# --- serialization ---------------------------------------------------------
#
# Each section is one table of fields.  A field names its key, how its
# values print, and how it takes its column of values from the section's
# rows.  Each column is rendered to text once per report, and report.json
# and the section's CSV file both write those texts.

_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _float_texts(values: Iterable[float]) -> list[str]:
    """Floats at 17 significant digits; non-finite ones read nan, inf and -inf."""
    values = tuple(values)
    return (("%.17g\n" * len(values)) % values).split("\n")[:-1]


def _json_floats(texts: list[str]) -> list[str]:
    """JSON numbers of float texts, with the non-finite ones as strings."""
    if _NON_FINITE.isdisjoint(texts):
        return texts
    return [f'"{t}"' if t in _NON_FINITE else t for t in texts]


def _json_strings(values: Iterable[str]) -> list[str]:
    return list(map(encode_basestring_ascii, values))


def _json_array(items: list[str], depth: int) -> str:
    """JSON array of encoded items, one per line, its brackets ``depth`` deep."""
    if not items:
        return "[]"
    line = "\n" + "  " * (depth + 1)
    return "[" + line + ("," + line).join(items) + "\n" + "  " * depth + "]"


def _json_arrays(items: list[str], counts: Iterable[int], depth: int) -> list[str]:
    """JSON arrays of the encoded items taken in turn, ``counts`` of them each."""
    out, start = [], 0
    for n in counts:
        out.append(_json_array(items[start : start + n], depth))
        start += n
    return out


def _object_template(keys: Sequence[str], depth: int) -> str:
    """%-template of a JSON object with these keys, its braces ``depth`` deep."""
    line = "\n" + "  " * (depth + 1)
    body = ",".join(f"{line}{encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys)
    return "{" + body + "\n" + "  " * depth + "}"


class _Kind(NamedTuple):
    """How a column prints: ``text(values)`` renders each value once, as its
    CSV cell (a string is quoted where CSV needs it); ``json(texts, depth)``
    gives the JSON text of each rendered value, its nested lines ``depth``
    deep.  A column of arrays is in JSON only, and its ``json`` renders it."""

    text: Callable[[list], list]
    json: Callable[[list, int], list[str]]


def _same(values: list, *_) -> list:
    return values


def _json_nested(encode: Callable[[Iterable], list[str]]) -> Callable[[list, int], list[str]]:
    """``json`` of a column of arrays, the items of all of them encoded in one pass."""
    return lambda arrays, depth: _json_arrays(encode(chain(*arrays)), map(len, arrays), depth)


_STR = _Kind(_same, lambda texts, depth: _json_strings(texts))
_INT = _Kind(lambda values: [str(int(v)) for v in values], _same)
_BOOL = _Kind(
    lambda values: ["True" if v else "False" for v in values],
    lambda texts, depth: ["true" if t == "True" else "false" for t in texts],
)
_FLOAT = _Kind(lambda values: _float_texts(values), lambda texts, depth: _json_floats(texts))
_FLOATS = _Kind(_same, _json_nested(lambda items: _json_floats(_float_texts(items))))
_STRS = _Kind(_same, _json_nested(_json_strings))

#: (rows, report, render) -> the field's text for each row, by its kind's ``text``.
_Column = Callable[[Sequence, RunReport, Callable[[list], list]], list]


class _Field(NamedTuple):
    key: str
    kind: _Kind | None
    column: _Column
    in_json: bool = True
    in_csv: bool = True
    #: Fields of each row's sub-rows, whose count ``column`` gives; a sub-field's
    #: column holds the texts of all the rows' sub-rows.  JSON nests a row's
    #: sub-rows under the key, CSV writes a line per sub-row led by the row's fields.
    sub: tuple["_Field", ...] = ()


def _attr(name: str) -> _Column:
    get = attrgetter(name)
    return lambda rows, report, render: render(list(map(get, rows)))


def _of_pair(position: int, name: str | None = None) -> _Column:
    """Column of a section whose rows are pairs: an item, or an attribute of it."""
    get = itemgetter(position) if name is None else (lambda row: getattr(row[position], name))
    return lambda rows, report, render: render(list(map(get, rows)))


def _cells(grid: Callable[[StabilityReport, RunReport], np.ndarray]) -> _Column:
    """Column of the verification cells, x-major: each value of
    ``grid(report, run)`` rendered once, then broadcast to the report's grid."""

    def column(reports: Sequence[StabilityReport], run: RunReport, render) -> list:
        grids = [np.asarray(grid(r, run)) for r in reports]
        texts = [np.reshape(np.array(render(g.ravel().tolist()), object), g.shape) for g in grids]
        return [t for r, g in zip(reports, texts) for t in np.broadcast_to(g, r.lhs.shape).flat]

    return column


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
                lambda reports, run, render: [r.lhs.size for r in reports],
                sub=(
                    _Field("x_index", _INT, _cells(lambda r, run: np.arange(len(r.lhs))[:, None])),
                    _Field(
                        "x_norm",
                        _FLOAT,
                        _cells(lambda r, run: np.reshape(run.x_norms[: len(r.lhs)], (-1, 1))),
                    ),
                    _Field("a", _FLOAT, _cells(lambda r, run: r.a_values)),
                    _Field("lhs", _FLOAT, _cells(lambda r, run: r.lhs)),
                    _Field("rhs", _FLOAT, _cells(lambda r, run: r.rhs)),
                    _Field("slack", _FLOAT, _cells(lambda r, run: r.slack)),
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


#: The section of each field, sub-fields included.
_SECTION_OF = {g: s for s in _SECTIONS for f in s.fields for g in (f, *f.sub)}


def _report_texts(report: RunReport) -> Callable[[_Field], list]:
    """The text column of each field, rendered on its first use and kept
    while the report holds the same row objects and sample norms: a row or
    norm that is added or replaced renders the texts again."""
    sources = [section.rows(report) for section in _SECTIONS] + [report.x_norms]
    rendered = [item for items in sources for item in (*items, None)]  # None ends a section
    kept, texts = report._texts or ([], {})
    if len(kept) != len(rendered) or not all(map(is_, kept, rendered)):
        texts = {}
        report._texts = (rendered, texts)

    def text(f: _Field) -> list:
        if f not in texts:
            rows = _SECTION_OF[f].rows(report)
            texts[f] = f.column(rows, report, f.kind.text if f.kind else _same)
        return texts[f]

    return text


def _json_objects(fields: Sequence[_Field], text: Callable[[_Field], list], depth: int) -> list:
    """JSON object of each row, its braces ``depth`` deep."""
    fields = [f for f in fields if f.in_json]
    columns = [
        _json_arrays(_json_objects(f.sub, text, depth + 2), text(f), depth + 1)
        if f.sub
        else f.kind.json(text(f), depth + 1)
        for f in fields
    ]
    template = _object_template([f.key for f in fields], depth)
    return [template % values for values in zip(*columns)]


def _write_json(report: RunReport, text: Callable[[_Field], list], fh) -> None:
    """Write report.json, one section at a time."""
    summary = {
        "violations": str(int(report.total_violations)),
        "all_converged": "true" if report.all_converged else "false",
    }
    if report.resolved_delta is not None:
        (summary["resolved_delta"],) = _json_floats(_float_texts([report.resolved_delta]))
    stages = _json_array(_json_strings(report.stages), 1)
    fh.write(f'{{\n  "seed": {int(report.seed)},\n  "stages": {stages}')
    for section in _SECTIONS:
        fh.write(f',\n  "{section.key}": ')
        fh.write(_json_array(_json_objects(section.fields, text, 2), 1))
    fh.write(',\n  "summary": ')
    fh.write(_object_template(list(summary), 1) % tuple(summary.values()))
    fh.write(f',\n  "exit_status": {int(report.exit_status)}\n}}\n')


#: What a cell may hold that ``csv.writer`` would quote it for.
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_strings(values: list[str]) -> list[str]:
    """CSV cells of strings, each quoted as ``csv.writer`` quotes it."""
    quoted = {}
    for s in filter(_CSV_SPECIAL, set(values)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((s, ""))  # a lone "" is quoted
        quoted[s] = buf.getvalue()[:-2]
    return [quoted.get(s, s) for s in values] if quoted else values


def _csv_text(section: _Section, text: Callable[[_Field], list]) -> str:
    """Text of a section's CSV file: the header, then a line per row."""

    def cells(f: _Field) -> list[str]:
        return _csv_strings(text(f)) if f.kind is _STR else text(f)

    fields = [f for f in section.fields if f.in_csv and not f.sub]
    columns = list(map(cells, fields))
    nested = next((f for f in section.fields if f.in_csv and f.sub), None)
    if nested is not None:  # a line per sub-row, led by the row's fields
        counts = text(nested)
        columns = [[v for v, n in zip(col, counts) for _ in range(n)] for col in columns]
        sub_fields = [f for f in nested.sub if f.in_csv]
        fields += sub_fields
        columns += map(cells, sub_fields)
    lines = [",".join(f.key for f in fields), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report as ``report.json`` or one CSV per section.

    Both come from one field table per section, whose columns are rendered
    once per report and shared by the two formats.  Floats are printed with
    17 significant digits; identical reports serialize to identical bytes.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = _report_texts(report)
    if fmt == "json":
        with (out / "report.json").open("w", encoding="utf-8") as fh:
            _write_json(report, text, fh)
        return [out / "report.json"]
    paths = [out / f"{section.key}.csv" for section in _SECTIONS]
    for section, path in zip(_SECTIONS, paths):
        path.write_text(_csv_text(section, text), encoding="utf-8", newline="")
    return paths
