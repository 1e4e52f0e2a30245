"""Outside-in tracing of the fuzzystab layers.

Every public function (``__all__``) of the layer modules is replaced, in the
defining module and in every fuzzystab module that imported it by name, by
a wrapper that records a span ``[name, start, end, parent, tag]`` in memory.
Nothing inside ``src/`` is edited.  The per-point callables are only
counted, never timed: timing them costs more than the work they do and
would distort every other span.

Self time of a span is its duration minus the durations of its direct
children.  A stage's time is the total duration of the outermost spans that
belong to it, so an ``extract_limit`` span under ``verify_stability`` counts
towards verification, not extraction.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from statistics import median

import numpy as np

LAYERS = ("spaces", "funceq", "extraction", "control", "harness")

#: Per-point callables: counted, not timed.  Metric name -> (module, owner, attribute).
COUNTED = {
    "spaces.membership.calls": ("spaces", "FuzzyNorm", "__call__"),
    "funceq.f_evals": ("funceq", "TestFunction", "__call__"),
    "control.eval_control.calls": ("control", None, "eval_control"),
    "extraction.iterations": ("extraction", None, "iterate"),
}

#: Public per-point helpers left unwrapped: a span per crisp-norm evaluation
#: would cost more than the evaluation itself.
UNWRAPPED = {("spaces", "euclidean_norm")}

#: Stage of each span that opens a pipeline stage.  The control prelude
#: (premise pairs and the auto-delta sup) is charged to hypothesis.
STAGE_OF = {
    "spaces.check_axioms": "axioms",
    "spaces.default_axiom_samples": "axioms",
    "control.premise_pairs": "hypothesis",
    "control.measure_residual_sup": "hypothesis",
    "control.scaling_alpha_check": "hypothesis",
    "control.vanishing_check": "hypothesis",
    "control.defect_premise_margin": "hypothesis",
    "extraction.extract_limit": "extraction",
    "extraction.extract_components": "extraction",
    "control.verify_stability": "verification",
    "harness.emit_report": "emit",
}
STAGES = ("axioms", "hypothesis", "extraction", "verification", "emit")

ROOT_SPAN = "cli.main"
CONFIG_LOAD = "harness.config_load"

#: Per-layer metrics read from the spans of one operation.
SELF_TIMES = (
    "spaces.check_axioms",
    "funceq.residual_main",
    "extraction.extract_limit",
    "control.scaling_alpha_check",
    "control.vanishing_check",
    "control.defect_premise_margin",
    "control.measure_residual_sup",
    "control.envelope",
    "control.verify_stability",
    "harness.run_pipeline",
)
CALLS = (
    "spaces.check_axioms",
    "funceq.residual_main",
    "extraction.extract_limit",
    "control.defect_premise_margin",
    "control.envelope",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Span recorder for one process; install around traced operations only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.extractions: list[tuple[object, bool]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.extractions.clear()
        self._stack.clear()

    def _timed(self, name, fn, tag=None, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            if tag is not None:
                span[4] = tag(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_extraction(self, args, kwargs, result) -> None:
        x = np.asarray(_arg(args, kwargs, 2, "x"), dtype=float)
        key = (_arg(args, kwargs, 0, "scheme"), x.tobytes())
        self.extractions.append((key, bool(result.converged)))

    def root(self, fn, *args):
        """Call ``fn`` under the root span of one operation."""
        return self._timed(ROOT_SPAN, fn)(*args)

    # --- patching ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules[f"fuzzystab.{layer}"] for layer in LAYERS}
        replacement: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        counted_functions = {(m, attr) for m, owner, attr in COUNTED.values() if owner is None}
        for metric, (m, owner, attr) in COUNTED.items():
            if owner is None:
                fn = getattr(modules[m], attr)
                replacement[id(fn)] = (fn, self._counted(metric, fn))
            else:
                cls = getattr(modules[m], owner)
                self._set(cls, attr, self._counted(metric, vars(cls)[attr]))
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or (layer, attr) in UNWRAPPED | counted_functions:
                    continue
                name = f"{layer}.{attr}"
                tag = observe = None
                if name == "harness.emit_report":
                    tag = lambda args, kwargs: _arg(args, kwargs, 1, "fmt")  # noqa: E731
                if name == "extraction.extract_limit":
                    observe = self._observe_extraction
                replacement[id(fn)] = (fn, self._timed(name, fn, tag, observe))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fuzzystab" or mod_name.startswith("fuzzystab.")):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = replacement.get(id(value), (None, None))
                if original is value:
                    self._set(module, attr, wrapper)
        config_cls = modules["harness"].ExperimentConfig
        load = vars(config_cls)["load"].__func__
        self._set(config_cls, "load", classmethod(self._timed(CONFIG_LOAD, load)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- metrics -------------------------------------------------------

    def operation_metrics(self) -> dict[str, float]:
        """Per-layer, per-stage and count metrics of the spans since ``reset``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        layer_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = (end - start) - child_time[i]
            self_time[name] += own
            calls[name] += 1
            layer = name.split(".", 1)[0]
            layer_self["harness" if layer == "cli" else layer] += own

        stage_time = dict.fromkeys(STAGES, 0.0)
        in_stage = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            inherited = parent >= 0 and in_stage[parent]
            in_stage[i] = inherited or name in STAGE_OF
            if name in STAGE_OF and not inherited:
                stage_time[STAGE_OF[name]] += end - start

        def total(name, tag=None):
            return sum(e - s for n, s, e, _, t in spans if n == name and (tag is None or t == tag))

        n_extract = len(self.extractions)
        out: dict[str, float] = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for metric in COUNTED:
            out[metric] = self.counts.get(metric, 0)
        out["extraction.converged_ratio"] = (
            sum(ok for _, ok in self.extractions) / n_extract if n_extract else 0.0
        )
        out["extraction.unique_ratio"] = (
            len({key for key, _ in self.extractions}) / n_extract if n_extract else 0.0
        )
        out["harness.config_load_s"] = total(CONFIG_LOAD)
        out["harness.emit_json_s"] = total("harness.emit_report", "json")
        out["harness.emit_csv_s"] = total("harness.emit_report", "csv")
        for stage in STAGES:
            out[f"stage.{stage}_s"] = stage_time[stage]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)
        return out


#: Metrics that must repeat exactly from one operation to the next.
EXACT = tuple(f"{n}.calls" for n in CALLS) + tuple(COUNTED) + (
    "extraction.converged_ratio",
    "extraction.unique_ratio",
)


def summarize(per_op: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timed metric over operations; exact metrics must agree.

    Returns the metrics and a list of exact metrics that did not repeat.
    """
    unsteady = [k for k in EXACT if len({op[k] for op in per_op}) > 1]
    merged = {k: (per_op[0][k] if k in EXACT else median(op[k] for op in per_op)) for k in per_op[0]}
    return merged, unsteady
