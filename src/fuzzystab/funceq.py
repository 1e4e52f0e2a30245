"""Closed-form test functions and functional-equation residuals.

The central object is the defect of the additive-quadratic equation

    f(2x+y) + f(2x-y) = f(x+y) + f(x-y) + 2 f(2x) - 2 f(x),

whose exact solutions include every map with quadratic, linear and constant
parts.  Test functions are closed-form (quadratic form + linear part +
constant per output coordinate, plus optional globally bounded
perturbations) so they can be evaluated exactly at geometrically scaled
arguments 2^n x and x / 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "PERTURBATION_SHAPES",
    "Perturbation",
    "CoordinatePoly",
    "TestFunction",
    "Residual",
    "residual_main",
    "residual_quadratic",
    "residual_additive",
    "biadditive_form",
    "even_part",
    "odd_part",
    "remove_offset",
]

PERTURBATION_SHAPES = ("sin", "cos", "rational")

#: Parity of each perturbation shape under x -> -x.
_SHAPE_IS_EVEN = {"sin": False, "cos": True, "rational": False}


def _quadratic_form(x: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """x^T quad x for points ``(..., d)`` and blocks ``(..., d, d)``.

    A stacked matmul takes the same two products per row as ``x @ quad @ x``
    on one vector and so equals it bit for bit; ``np.einsum`` rounds
    differently in the last bit.
    """
    return ((x[..., None, :] @ quad) @ x[..., :, None])[..., 0, 0]


def _linear_form(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w . x for points ``(..., d)`` and weights ``(..., d)``, bit for bit
    ``w @ x`` on one vector (``x @ w`` on a stack rounds differently)."""
    return (x[..., None, :] @ w[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class Perturbation:
    """Globally bounded closed-form term added to every output coordinate.

    Shapes (q = frequency . x):
      sin       amplitude * sin(q)            (odd, |.| <= amplitude)
      cos       amplitude * (cos(q) - 1)      (even, |.| <= 2 amplitude)
      rational  amplitude * q / (1 + q^2)     (odd, |.| <= amplitude / 2)

    ``amplitude`` is a scalar or one value per output coordinate.
    """

    shape: str
    amplitude: float | tuple[float, ...] = 0.0
    frequency: float | tuple[float, ...] = 1.0

    def __post_init__(self) -> None:
        if self.shape not in PERTURBATION_SHAPES:
            raise ValueError(f"unknown perturbation shape {self.shape!r}")
        amps = self.amplitude if isinstance(self.amplitude, tuple) else (self.amplitude,)
        if any(a < 0 for a in amps):
            raise ValueError("perturbation amplitude must be >= 0")
        object.__setattr__(self, "_amp", np.asarray(self.amplitude, dtype=float))
        w = np.asarray(self.frequency, dtype=float) if isinstance(self.frequency, tuple) else None
        object.__setattr__(self, "_w", w)

    def profile(self, x: np.ndarray) -> np.ndarray:
        """Profile at points ``x`` of shape ``(..., d)``; shape ``(...)``."""
        x = np.asarray(x, dtype=float)
        if self._w is not None:
            if self._w.size != x.shape[-1]:
                raise DimensionMismatchError(
                    f"frequency has dimension {self._w.size}, "
                    f"vector has dimension {x.shape[-1]}"
                )
            q = _linear_form(x, self._w)
        else:
            q = float(self.frequency) * x.sum(axis=-1)
        if self.shape == "sin":
            return np.sin(q)
        if self.shape == "cos":
            return np.cos(q) - 1.0
        # rational: q / (1 + q^2), evaluated as 1/q for huge |q| to avoid overflow
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.where(np.abs(q) > 1e100, 1.0 / q, q / (1.0 + q * q))

    def value(self, x: np.ndarray, dim_y: int) -> np.ndarray:
        """Term at points ``x`` of shape ``(..., d)`` for a codomain of
        dimension ``dim_y``: shape ``(..., 1)`` for a scalar amplitude,
        ``(..., dim_y)`` for one per coordinate, so it broadcasts to
        ``(..., dim_y)``."""
        amp = self._amp
        if amp.ndim == 1 and amp.size != dim_y:
            raise DimensionMismatchError(
                f"amplitude has dimension {amp.size}, codomain has dimension {dim_y}"
            )
        return amp * self.profile(x)[..., None]


@dataclass(frozen=True, eq=False)
class CoordinatePoly:
    """One output coordinate: x^T quad x + linear . x + const."""

    quad: np.ndarray | None = None
    linear: np.ndarray | None = None
    const: float = 0.0


def _stack_blocks(
    coords: Sequence[CoordinatePoly], attr: str
) -> tuple[np.ndarray | None, np.ndarray] | None:
    """Indices of the coordinates that have block ``attr`` (``None`` for all
    of them) and those blocks stacked along a new first axis; ``None`` if no
    coordinate has one.

    Only present blocks are stacked: a zero block in place of a missing one
    would turn a ``-0.0`` constant into ``0.0``.
    """
    at = [j for j, c in enumerate(coords) if getattr(c, attr) is not None]
    if not at:
        return None
    blocks = np.stack([getattr(coords[j], attr) for j in at]).astype(float)
    return (None if len(at) == len(coords) else np.array(at)), blocks


def _add_at(out: np.ndarray, at: np.ndarray | None, values: np.ndarray) -> None:
    """Add ``values`` to the coordinates ``at`` of ``out`` (all if ``None``)."""
    if at is None:
        out += values
    else:
        out[..., at] += values


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Deterministic closed-form map R^dim_x -> R^dim_y.

    Evaluates points of shape ``(..., dim_x)`` to values of shape
    ``(..., dim_y)``; each row equals the evaluation of that point alone, bit
    for bit.  With all perturbation amplitudes zero the function is exactly
    its polynomial base.
    """

    coords: tuple[CoordinatePoly, ...]
    perturbations: tuple[Perturbation, ...] = ()
    dim_x: int = 1

    __test__ = False  # domain type, not a pytest case

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("at least one output coordinate required")
        for c in self.coords:
            if c.quad is not None and c.quad.shape != (self.dim_x, self.dim_x):
                raise DimensionMismatchError(
                    f"quad block {c.quad.shape} does not match dim_x={self.dim_x}"
                )
            if c.linear is not None and c.linear.shape != (self.dim_x,):
                raise DimensionMismatchError(
                    f"linear block {c.linear.shape} does not match dim_x={self.dim_x}"
                )
        object.__setattr__(self, "_const", np.array([c.const for c in self.coords], dtype=float))
        object.__setattr__(self, "_quad", _stack_blocks(self.coords, "quad"))
        object.__setattr__(self, "_linear", _stack_blocks(self.coords, "linear"))

    @property
    def dim_y(self) -> int:
        return len(self.coords)

    @classmethod
    def scalar(
        cls,
        quad: float = 0.0,
        linear: float = 0.0,
        const: float = 0.0,
        perturbations: Sequence[Perturbation] = (),
    ) -> "TestFunction":
        """One-dimensional convenience constructor: quad*x^2 + linear*x + const."""
        coord = CoordinatePoly(
            quad=np.array([[quad]], dtype=float),
            linear=np.array([linear], dtype=float),
            const=float(const),
        )
        return cls(coords=(coord,), perturbations=tuple(perturbations), dim_x=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        v = np.asarray(x, dtype=float)
        if v.ndim == 0:
            v = v.reshape(1)
        if v.shape[-1] != self.dim_x:
            raise DimensionMismatchError(
                f"input has shape {v.shape}, expected (..., {self.dim_x})"
            )
        # Per coordinate, summed in this order: const, + quadratic form,
        # + linear form, then + each perturbation in turn.
        out = np.empty(v.shape[:-1] + (self.dim_y,))
        out[...] = self._const
        rows = v[..., None, :]
        if self._quad is not None:
            _add_at(out, self._quad[0], _quadratic_form(rows, self._quad[1]))
        if self._linear is not None:
            _add_at(out, self._linear[0], _linear_form(rows, self._linear[1]))
        for p in self.perturbations:
            out += p.value(v, self.dim_y)
        return out


VectorFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Residual:
    """Equation defect at one argument pair, or at a stack of them; ``norm``
    is the norm of one pair's defect."""

    value: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.value))


def _coerce_pair(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape:
        raise DimensionMismatchError(f"x has shape {xv.shape}, y has shape {yv.shape}")
    dim = getattr(f, "dim_x", None)
    if dim is not None and xv.shape[-1] != dim:
        raise DimensionMismatchError(f"input has shape {xv.shape}, expected (..., {dim})")
    return xv, yv


def residual_main(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> Residual:
    """Defect f(2x+y) + f(2x-y) - f(x+y) - f(x-y) - 2 f(2x) + 2 f(x).

    ``x`` and ``y`` are one pair or equal stacks of pairs ``(..., dim_x)``; on
    a stack ``f`` is called once per term with all the points, so it must map
    ``(..., dim_x)`` to ``(..., dim_y)`` row by row as ``TestFunction`` does.
    """
    xv, yv = _coerce_pair(f, x, y)
    val = (
        np.asarray(f(2 * xv + yv), dtype=float)
        + np.asarray(f(2 * xv - yv), dtype=float)
        - np.asarray(f(xv + yv), dtype=float)
        - np.asarray(f(xv - yv), dtype=float)
        - 2 * np.asarray(f(2 * xv), dtype=float)
        + 2 * np.asarray(f(xv), dtype=float)
    )
    return Residual(value=val)


def residual_quadratic(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> Residual:
    """Defect of the parallelogram identity: f(x+y) + f(x-y) - 2 f(x) - 2 f(y)."""
    xv, yv = _coerce_pair(f, x, y)
    val = (
        np.asarray(f(xv + yv), dtype=float)
        + np.asarray(f(xv - yv), dtype=float)
        - 2 * np.asarray(f(xv), dtype=float)
        - 2 * np.asarray(f(yv), dtype=float)
    )
    return Residual(value=val)


def residual_additive(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> Residual:
    """Additivity defect f(x+y) - f(x) - f(y)."""
    xv, yv = _coerce_pair(f, x, y)
    val = (
        np.asarray(f(xv + yv), dtype=float)
        - np.asarray(f(xv), dtype=float)
        - np.asarray(f(yv), dtype=float)
    )
    return Residual(value=val)


def biadditive_form(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Polarization (1/4)(f(x+y) - f(x-y)); recovers B with B(x,x)=f(x) for quadratic f."""
    xv, yv = _coerce_pair(f, x, y)
    return 0.25 * (np.asarray(f(xv + yv), dtype=float) - np.asarray(f(xv - yv), dtype=float))


@dataclass(frozen=True, eq=False)
class ParityPart:
    """Even or odd part of a function; evaluable wherever the source is."""

    source: VectorFunction
    sign: float  # +1 even part, -1 odd part

    @property
    def dim_x(self) -> int | None:
        return getattr(self.source, "dim_x", None)

    @property
    def dim_y(self) -> int | None:
        return getattr(self.source, "dim_y", None)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        v = np.atleast_1d(np.asarray(x, dtype=float))
        f = self.source
        return 0.5 * (np.asarray(f(v), dtype=float) + self.sign * np.asarray(f(-v), dtype=float))


def even_part(f: VectorFunction) -> VectorFunction:
    """x -> (f(x) + f(-x)) / 2; even, and agrees with f at 0.

    Closed-form inputs keep a closed form (quadratic, constant and even
    perturbation terms), so the part stays exact at arguments 2^n x where
    the averaging formula would lose the cancelled terms to rounding.
    Other callables get the averaging wrapper.
    """
    if isinstance(f, TestFunction):
        coords = tuple(
            CoordinatePoly(quad=c.quad, linear=None, const=c.const) for c in f.coords
        )
        perts = tuple(p for p in f.perturbations if _SHAPE_IS_EVEN[p.shape])
        return TestFunction(coords=coords, perturbations=perts, dim_x=f.dim_x)
    return ParityPart(source=f, sign=1.0)


def odd_part(f: VectorFunction) -> VectorFunction:
    """x -> (f(x) - f(-x)) / 2; odd, vanishes at 0, and even_part + odd_part = f.

    Closed-form inputs keep a closed form (linear and odd perturbation
    terms); other callables get the averaging wrapper.
    """
    if isinstance(f, TestFunction):
        coords = tuple(
            CoordinatePoly(quad=None, linear=c.linear, const=0.0) for c in f.coords
        )
        perts = tuple(p for p in f.perturbations if not _SHAPE_IS_EVEN[p.shape])
        return TestFunction(coords=coords, perturbations=perts, dim_x=f.dim_x)
    return ParityPart(source=f, sign=-1.0)


@dataclass(frozen=True, eq=False)
class ShiftedFunction:
    """Source function minus a constant offset."""

    source: VectorFunction
    offset: np.ndarray

    @property
    def dim_x(self) -> int | None:
        return getattr(self.source, "dim_x", None)

    @property
    def dim_y(self) -> int | None:
        return getattr(self.source, "dim_y", None)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.source(x), dtype=float) - self.offset


def remove_offset(f: VectorFunction, dim_x: int | None = None) -> tuple[VectorFunction, np.ndarray]:
    """Return (f - f(0), f(0)); the shifted function vanishes at the origin.

    Closed-form inputs have f(0) equal to their constant terms (every
    perturbation shape vanishes at 0), so the shift folds into the
    constants and the result stays closed-form.
    """
    if dim_x is None:
        dim_x = getattr(f, "dim_x", None)
    if dim_x is None:
        raise ValueError("dim_x required for functions without a dim_x attribute")
    f0 = np.asarray(f(np.zeros(dim_x)), dtype=float)
    if isinstance(f, TestFunction):
        coords = tuple(
            CoordinatePoly(quad=c.quad, linear=c.linear, const=c.const - float(z))
            for c, z in zip(f.coords, f0)
        )
        return TestFunction(coords=coords, perturbations=f.perturbations, dim_x=f.dim_x), f0
    return ShiftedFunction(source=f, offset=f0), f0
