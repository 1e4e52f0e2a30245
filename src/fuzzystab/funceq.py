"""Closed-form test functions and functional-equation residuals.

The central object is the defect of the additive-quadratic equation

    f(2x+y) + f(2x-y) = f(x+y) + f(x-y) + 2 f(2x) - 2 f(x),

whose exact solutions include every map with quadratic, linear and constant
parts.  Test functions are closed-form (quadratic form + linear part +
constant per output coordinate, plus optional globally bounded
perturbations) so they can be evaluated exactly at geometrically scaled
arguments 2^n x and x / 2^n.

The equation and its quadratic and additive laws are the term tables
``_EQUATION``, ``_QUADRATIC_LAW`` and ``_ADDITIVE_LAW``; the perturbation
shapes, with their profiles and parities, are the table ``_SHAPES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "PERTURBATION_SHAPES",
    "Perturbation",
    "CoordinatePoly",
    "TestFunction",
    "residual_main",
    "residual_quadratic",
    "residual_additive",
    "even_part",
    "odd_part",
    "remove_offset",
]


class _Shape(NamedTuple):
    """A perturbation shape: its profile of q = frequency . x and its parity."""

    profile: Callable[[np.ndarray], np.ndarray]
    is_even: bool  # else the profile is odd


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _rational(q: np.ndarray) -> np.ndarray:
    return np.where(np.abs(q) > 1e100, 1.0 / q, q / (1.0 + q * q))  # q^2 overflows at huge |q|


def _cos_minus_one(q: np.ndarray) -> np.ndarray:
    """cos q - 1 as -2 sin(q/2)^2, which keeps its relative accuracy at small
    |q|, where cos q - 1 cancels (to 0 below |q| = 1e-8); ``0.0 -`` gives +0.0
    at q = 0, and ``s * s`` rounds a scalar as it rounds each array entry."""
    s = np.sin(0.5 * q)
    return 0.0 - 2.0 * (s * s)


_SHAPES = {
    "sin": _Shape(np.sin, False),  # |.| <= 1
    "cos": _Shape(_cos_minus_one, True),  # cos q - 1, |.| <= 2
    "rational": _Shape(_rational, False),  # q / (1 + q^2), |.| <= 1/2
}
PERTURBATION_SHAPES = tuple(_SHAPES)


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
    """Globally bounded term added to every output coordinate: ``amplitude``
    (a scalar, or one value per coordinate) times the profile of ``shape``,
    a key of ``_SHAPES``, at q = frequency . x."""

    shape: str
    amplitude: float | tuple[float, ...] = 0.0
    frequency: float | tuple[float, ...] = 1.0

    def __post_init__(self) -> None:
        # by equality, as a JSON list is not hashable; each message opens with its key
        if self.shape not in PERTURBATION_SHAPES:
            raise ValueError(f"shape {self.shape!r} is not one of {', '.join(PERTURBATION_SHAPES)}")
        amps = self.amplitude if isinstance(self.amplitude, tuple) else (self.amplitude,)
        if any(a < 0 for a in amps):
            raise ValueError("amplitude must be >= 0")
        # a non-finite amplitude or frequency makes the term NaN, even at q = 0
        for key in ("amplitude", "frequency"):
            if not np.isfinite(getattr(self, key)).all():
                raise ValueError(f"{key} must be finite")
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
        return _SHAPES[self.shape].profile(q)

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
        for attr, shape in {"quad": (self.dim_x, self.dim_x), "linear": (self.dim_x,)}.items():
            for c in self.coords:
                if (block := getattr(c, attr)) is not None and block.shape != shape:
                    message = f"{attr} block {block.shape} does not match dim_x={self.dim_x}"
                    raise DimensionMismatchError(message)
            object.__setattr__(self, f"_{attr}", _stack_blocks(self.coords, attr))
        object.__setattr__(self, "_const", np.array([c.const for c in self.coords], dtype=float))

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
        v = np.atleast_1d(np.asarray(x, dtype=float))
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


#: Terms (c, p, q) of a defect sum of c f(p x + q y), in the order summed.
_EQUATION = ((1, 2, 1), (1, 2, -1), (-1, 1, 1), (-1, 1, -1), (-2, 2, 0), (2, 1, 0))
_QUADRATIC_LAW = ((1, 1, 1), (1, 1, -1), (-2, 1, 0), (-2, 0, 1))
_ADDITIVE_LAW = ((1, 1, 1), (-1, 1, 0), (-1, 0, 1))


def stacked_values(f: VectorFunction, points: np.ndarray) -> np.ndarray:
    """``f`` at the stack ``points`` as floats, refused with ``ValueError``
    unless it maps ``(..., dim_x)`` to ``(..., dim_y)`` row by row."""
    values = np.asarray(f(points), dtype=float)
    if values.shape[:-1] != points.shape[:-1]:
        raise ValueError(
            f"f maps points of shape {points.shape} to shape {values.shape}; "
            "it must map (..., dim_x) to (..., dim_y) row by row"
        )
    return values


def _defect(terms: tuple[tuple[int, int, int], ...], f: VectorFunction, x, y) -> np.ndarray:
    """The sum of c f(p x + q y) over ``terms`` at one pair or equal stacks of
    pairs ``(..., dim_x)``, shape ``(..., dim_y)``, from one call of ``f`` on
    the ``(terms, ..., dim_x)`` stack of the arguments.  A zero multiplier's
    variable is left out (no 0 * inf, no -0.0 turned to 0.0), and the sum
    starts from the first term."""
    xv, yv = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    if xv.shape != yv.shape:
        raise DimensionMismatchError(f"x has shape {xv.shape}, y has shape {yv.shape}")
    args = [p * xv + q * yv if p and q else p * xv if p else q * yv for _, p, q in terms]
    values = stacked_values(f, np.stack(args))
    total = terms[0][0] * values[0]
    for (c, _, _), value in zip(terms[1:], values[1:]):
        total += c * value
    return total


def residual_main(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Defect f(2x+y) + f(2x-y) - f(x+y) - f(x-y) - 2 f(2x) + 2 f(x).

    ``x`` and ``y`` are one pair or equal stacks of pairs ``(..., dim_x)``, and
    the defect has shape ``(..., dim_y)``.  ``f`` is called once, on the
    stacked arguments of the six terms, so even for one pair it must map
    ``(..., dim_x)`` to ``(..., dim_y)`` row by row as ``TestFunction`` does.
    """
    return _defect(_EQUATION, f, x, y)


def residual_quadratic(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Defect of the parallelogram identity: f(x+y) + f(x-y) - 2 f(x) - 2 f(y)."""
    return _defect(_QUADRATIC_LAW, f, x, y)


def residual_additive(f: VectorFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Additivity defect f(x+y) - f(x) - f(y)."""
    return _defect(_ADDITIVE_LAW, f, x, y)


def even_part(f: TestFunction) -> TestFunction:
    """x -> (f(x) + f(-x)) / 2; even, and agrees with f at 0.

    The part keeps the closed form (quadratic, constant and even
    perturbation terms), so it stays exact at arguments 2^n x where the
    averaging formula would lose the cancelled terms to rounding.
    """
    coords = tuple(CoordinatePoly(quad=c.quad, const=c.const) for c in f.coords)
    perts = tuple(p for p in f.perturbations if _SHAPES[p.shape].is_even)
    return TestFunction(coords=coords, perturbations=perts, dim_x=f.dim_x)


def odd_part(f: TestFunction) -> TestFunction:
    """x -> (f(x) - f(-x)) / 2; odd, vanishes at 0, and even_part + odd_part = f.

    The part keeps the closed form (linear and odd perturbation terms).
    """
    coords = tuple(CoordinatePoly(linear=c.linear) for c in f.coords)
    perts = tuple(p for p in f.perturbations if not _SHAPES[p.shape].is_even)
    return TestFunction(coords=coords, perturbations=perts, dim_x=f.dim_x)


def remove_offset(f: TestFunction) -> tuple[TestFunction, np.ndarray]:
    """Return (f - f(0), f(0)); the shifted function vanishes at the origin.

    f(0) equals the constant terms (every perturbation shape vanishes at 0),
    so the shift folds into the constants and the result stays closed-form.
    """
    f0 = f(np.zeros(f.dim_x))
    coords = tuple(
        CoordinatePoly(quad=c.quad, linear=c.linear, const=c.const - float(z))
        for c, z in zip(f.coords, f0)
    )
    return TestFunction(coords=coords, perturbations=f.perturbations, dim_x=f.dim_x), f0
