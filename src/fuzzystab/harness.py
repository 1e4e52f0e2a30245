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
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
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
    Perturbation,
    TestFunction,
    remove_offset,
)
from .spaces import (
    AxiomCheck,
    FuzzyNorm,
    SpaceConfig,
    check_axioms,
    default_axiom_samples,
    log_a_grid,
    sample_ball,
    stack_norms,
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
    "ExtractionTable",
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
        amounts = {k: _amounts(item[k], f"{ploc}.{k}", *counts[k]) for k in counts if k in item}
        try:
            perturbations.append(Perturbation(item["shape"], **amounts))
        except ValueError as exc:  # each message opens with its key
            raise ConfigError(f"{ploc}.{str(exc).split()[0]}", str(exc)) from exc
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


class ExtractionTable(NamedTuple):
    """One component's extraction at every sample point, a column per field.

    A point's ``x_index`` is its position in the columns, and its ``x_norm``
    is ``RunReport.x_norms[x_index]``.  The columns are tuples and a
    read-only array, and a report holds its tables in a tuple, so a table
    never changes once built.
    """

    theorem_id: str
    component: str
    limits: np.ndarray  # (points, dim_y)
    limit_norms: tuple[float, ...]
    #: The columns of ``ExtractionResult`` fields, by their names.
    n_used: tuple[int, ...]
    converged: tuple[bool, ...]
    ratio_estimate: tuple[float, ...]
    stopped_reason: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class RunReport:
    """Aggregated pipeline output, built once by ``run_pipeline`` and never
    changed; sections for stages not run stay empty."""

    seed: int
    stages: tuple[str, ...]
    axiom_rows: tuple[tuple[str, AxiomCheck], ...] = ()
    hypothesis_rows: tuple[HypothesisRow, ...] = ()
    extractions: tuple[ExtractionTable, ...] = ()
    verification_reports: tuple[StabilityReport, ...] = ()
    repair_log: tuple[tuple[str, str], ...] = ()
    resolved_delta: float | None = None
    #: Norm of each sample point (the space's ``norm()`` by ``stack_norms``), by ``x_index``.
    x_norms: tuple[float, ...] = ()

    @cached_property
    def _sections(self) -> dict[str, list[_Column]]:
        """The text columns of each section: rendered by the first emit,
        reused by the second, and freed with the report."""
        return _report_sections(self)

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
        return all(all(table.converged) for table in self.extractions)

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


def run_pipeline(cfg: ExperimentConfig, stages: Sequence[str] = ALL_STAGES) -> RunReport:
    """Execute the requested pipeline stages: the axiom audit, a control
    prelude, then one pass per theorem for its hypothesis rows, extraction
    and verification.  Verification extracts whatever it needs even when the
    extraction section was not requested; sections are only populated for
    requested stages.
    """
    stages = tuple(s for s in ALL_STAGES if s in stages)
    axiom_rows, hypothesis_rows, extractions, verified = [], [], [], []
    resolved_delta = None
    ss = np.random.SeedSequence(cfg.seed)
    seed_axioms, seed_x, seed_premise = ss.spawn(3)

    norm = cfg.space.norm()
    N = FuzzyNorm.induced(norm)
    phi = cfg.control  # holds the N' its checks use, audited below
    a_values = log_a_grid(points=cfg.a_points)

    rng_x = np.random.default_rng(seed_x)
    xs = sample_ball(rng_x, cfg.space.dim_x, cfg.x_radius, cfg.x_count)
    with np.errstate(over="ignore"):  # an overflowing norm is normed again, never warned
        x_norms = tuple(stack_norms(norm, xs).tolist())

    if "axioms" in stages:
        points, scalars = default_axiom_samples(
            cfg.space.dim_y,
            count=cfg.axiom_points,
            radius=cfg.x_radius,
            seed=int(seed_axioms.generate_state(1)[0]),
            a_grid=a_values,
        )
        axiom_rows += [("N", check) for check in check_axioms(N, points, scalars)]
        scalar_points = [(np.atleast_1d(v), a) for (v, a) in points if v.size == 1]
        if not scalar_points:
            scalar_rng = np.random.default_rng(int(seed_axioms.generate_state(2)[1]))
            scalar_points = [
                (scalar_rng.normal(size=1) * cfg.x_radius, float(a))
                for a in a_values
                for _ in (0, 1)
            ]
        axiom_rows += [("N'", check) for check in check_axioms(phi.nprime, scalar_points, scalars)]

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
            resolved_delta = measure_residual_sup(shifted, all_pairs, norm=norm)
            phi = replace(phi, delta=resolved_delta)
        for t, pairs in premise_by_theorem.items():
            margin_by_theorem[t] = defect_premise_margin(shifted, phi, N, pairs, a_values)

    for t in cfg.theorems:
        schemes = THEOREMS[t].schemes
        if "hypothesis" in stages:
            rows = hypothesis_rows
            # decided from phi's degree, or failed by a non-finite auto-delta:
            # a failed row names that cause, not a witness
            if resolved_delta is None or math.isfinite(resolved_delta):
                cause = f"degree {phi.degree:g}"
            else:
                cause = f"auto delta {resolved_delta:g}"
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
            limits.flags.writeable = False
            with np.errstate(over="ignore"):
                limit_norms = stack_norms(norm, limits).tolist()
            for scheme, at_xs, at_limits, normed in zip(schemes, results, limits, limit_norms):
                name = "quadratic" if scheme.is_quadratic else "additive"
                columns = (tuple(map(attrgetter(c), at_xs)) for c in ExtractionTable._fields[4:])
                extractions.append(ExtractionTable(t, name, at_limits, tuple(normed), *columns))
        if "verification" in stages:
            if cfg.q_scale != 1.0:
                components = tuple(
                    _ScaledComponent(c, cfg.q_scale) if c.scheme.is_quadratic else c
                    for c in components
                )
            gate = margin_by_theorem[t]
            verified.append(
                verify_stability(shifted, components, phi, t, xs, a_values, N, premise_margin=gate)
            )

    repairs = dict.fromkeys(repair for r in verified for repair in r.repairs)  # first-seen order
    repair_log = tuple((repair, REPAIR_DESCRIPTIONS[repair]) for repair in repairs)
    sections = map(tuple, (axiom_rows, hypothesis_rows, extractions, verified))
    return RunReport(cfg.seed, stages, *sections, repair_log, resolved_delta, x_norms)


# --- serialization ---------------------------------------------------------
#
# Each section is one list of text columns, built once per report by
# ``_report_sections`` and kept as ``RunReport._sections``.  A column holds
# one text per row of report.json and one per row of the section's CSV
# file, or None where that file leaves the field out; each writer is one
# loop over a section's columns.  The two files may count rows apart: a
# verification row is a report in JSON, whose (x, a) cells sit nested in
# its ``rows`` column, and a cell in CSV.

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


class _Column(NamedTuple):
    """A field's text for each row of report.json and for each row of its
    CSV file, which may count rows apart; None where that file leaves the
    field out."""

    key: str
    json: list[str] | None
    csv: list[str] | None


def _str(key: str, values: Iterable[str]) -> _Column:
    values = list(values)
    return _Column(key, _json_strings(values), _csv_strings(values))


def _int(key: str, values: Iterable[int]) -> _Column:
    texts = [str(int(v)) for v in values]
    return _Column(key, texts, texts)


def _bool(key: str, values: Iterable[bool]) -> _Column:
    texts = ["True" if v else "False" for v in values]
    return _Column(key, ["true" if t == "True" else "false" for t in texts], texts)


def _float(key: str, values: Iterable[float]) -> _Column:
    texts = _float_texts(values)
    return _Column(key, _json_floats(texts), texts)


def _nested(key: str, arrays: list[Sequence], render: Callable[..., _Column]) -> _Column:
    """JSON-only column of arrays, the items of all of them rendered by
    ``render`` in one pass; a field's array sits 3 deep in report.json."""
    items = render(key, chain(*arrays)).json
    return _Column(key, _json_arrays(items, map(len, arrays), 3), None)


def _report_sections(report: RunReport) -> dict[str, list[_Column]]:
    """The text columns of each section by its key; ``RunReport._sections``
    keeps them.  A verification row is one report in report.json, where its
    JSON-only ``rows`` column nests its (x, a) cells, and one cell in the CSV
    file, where its CSV-only cell columns follow its ``theorem_id``."""
    axioms, hypotheses = report.axiom_rows, report.hypothesis_rows
    tables, verified, repairs = report.extractions, report.verification_reports, report.repair_log
    checks = [check for _, check in axioms]

    def per_point(get: Callable[[ExtractionTable], Sequence]) -> list:
        return [v for t in tables for v in get(t)]

    def cells(key: str, grid: Callable[[StabilityReport], np.ndarray], render) -> _Column:
        # x-major: each value of a report's grid rendered once, then broadcast to its shape
        grids = [np.asarray(grid(r)) for r in verified]
        column = render(key, [v for g in grids for v in g.ravel().tolist()])

        def spread(texts: list[str]) -> list[str]:
            out, start = [], 0
            for g, r in zip(grids, verified):
                block = np.reshape(np.array(texts[start : start + g.size], object), g.shape)
                out += np.broadcast_to(block, r.lhs.shape).flat
                start += g.size
            return out

        json = spread(column.json)
        return _Column(key, json, json if column.csv is column.json else spread(column.csv))

    cell_columns = [
        cells("x_index", lambda r: np.arange(len(r.lhs))[:, None], _int),
        cells("x_norm", lambda r: np.reshape(report.x_norms[: len(r.lhs)], (-1, 1)), _float),
        cells("a", attrgetter("a_values"), _float),
        cells("lhs", attrgetter("lhs"), _float),
        cells("rhs", attrgetter("rhs"), _float),
        cells("slack", attrgetter("slack"), _float),
    ]
    counts = [r.lhs.size for r in verified]
    theorem_ids = _str("theorem_id", [r.theorem_id for r in verified])
    theorem_id_per_cell = [text for text, n in zip(theorem_ids.csv, counts) for _ in range(n)]
    return {
        "axioms": [
            _str("norm", [norm for norm, _ in axioms]),
            _str("axiom", [c.axiom for c in checks]),
            _str("status", [c.status for c in checks]),
            _bool("passed", [c.passed for c in checks]),
            _int("violations", [c.violations for c in checks]),
            _float("worst_slack", [c.worst_slack for c in checks]),
            _str("note", [c.note for c in checks]),
        ],
        "hypothesis": [
            _str("theorem_id", [r.theorem_id for r in hypotheses]),
            _str("check", [r.check for r in hypotheses]),
            _bool("passed", [r.passed for r in hypotheses]),
            _float("worst_slack", [r.worst_slack for r in hypotheses]),
            _str("note", [r.note for r in hypotheses]),
        ],
        "extraction": [
            _str("theorem_id", per_point(lambda t: [t.theorem_id] * len(t.n_used))),
            _str("component", per_point(lambda t: [t.component] * len(t.n_used))),
            _int("x_index", per_point(lambda t: range(len(t.n_used)))),
            _float("x_norm", per_point(lambda t: report.x_norms[: len(t.n_used)])),
            _nested("limit", per_point(lambda t: t.limits.tolist()), _float),
            _float("limit_norm", per_point(attrgetter("limit_norms")))._replace(json=None),
            _int("n_used", per_point(attrgetter("n_used"))),
            _bool("converged", per_point(attrgetter("converged"))),
            _float("ratio_estimate", per_point(attrgetter("ratio_estimate"))),
            _str("stopped_reason", per_point(attrgetter("stopped_reason"))),
        ],
        "verification": [
            theorem_ids._replace(csv=theorem_id_per_cell),
            _bool("hypothesis_ok", [r.hypothesis_ok for r in verified])._replace(csv=None),
            _str("note", [r.note for r in verified])._replace(csv=None),
            _float("worst_slack", [r.worst_slack for r in verified])._replace(csv=None),
            _int("violations", [r.violations for r in verified])._replace(csv=None),
            _nested("repairs", [r.repairs for r in verified], _str),
            _Column("rows", _json_arrays(_json_rows(cell_columns, 4), counts, 3), None),
            *(column._replace(json=None) for column in cell_columns),
        ],
        "repair_log": [
            _str("repair_id", [repair for repair, _ in repairs]),
            _str("description", [description for _, description in repairs]),
        ],
    }


def _json_rows(columns: list[_Column], depth: int) -> list[str]:
    """The JSON object of each row of the columns, its braces ``depth`` deep."""
    columns = [c for c in columns if c.json is not None]
    template = _object_template([c.key for c in columns], depth)
    return [template % values for values in zip(*(c.json for c in columns))]


def _write_json(report: RunReport, sections: dict[str, list[_Column]], fh) -> None:
    """Write report.json, one section at a time."""
    summary = {
        "violations": str(int(report.total_violations)),
        "all_converged": "true" if report.all_converged else "false",
    }
    if report.resolved_delta is not None:
        (summary["resolved_delta"],) = _json_floats(_float_texts([report.resolved_delta]))
    stages = _json_array(_json_strings(report.stages), 1)
    fh.write(f'{{\n  "seed": {int(report.seed)},\n  "stages": {stages}')
    for key, columns in sections.items():
        fh.write(f",\n  {encode_basestring_ascii(key)}: ")
        fh.write(_json_array(_json_rows(columns, 2), 1))
    fh.write(',\n  "summary": ')
    fh.write(_object_template(list(summary), 1) % tuple(summary.values()))
    fh.write(f',\n  "exit_status": {int(report.exit_status)}\n}}\n')


def _csv_text(columns: list[_Column]) -> str:
    """Text of a section's CSV file: the header, then a line per row."""
    columns = [c for c in columns if c.csv is not None]
    lines = [",".join(c.key for c in columns), *map(",".join, zip(*(c.csv for c in columns)))]
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the report as ``report.json`` or one CSV per section.

    Both write the text columns of each section, rendered by the first emit
    of the report and reused by the second.  Floats are printed with 17 significant
    digits; identical reports serialize to identical bytes.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sections = report._sections
    if fmt == "json":
        with (out / "report.json").open("w", encoding="utf-8") as fh:
            _write_json(report, sections, fh)
        return [out / "report.json"]
    paths = [out / f"{key}.csv" for key in sections]
    for columns, path in zip(sections.values(), paths):
        path.write_text(_csv_text(columns), encoding="utf-8", newline="")
    return paths
