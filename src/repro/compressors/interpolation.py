"""Level-by-level separable interpolation prediction (the SZ3 core).

SZ3 predicts the whole array with a multi-level interpolation scheme: anchor
points on the coarsest grid are stored exactly, then each level halves the
grid spacing and predicts the newly introduced points by interpolating along
one axis at a time from already-reconstructed points.  Points whose upper
neighbour falls outside the array can only be *extrapolated* from the lower
neighbour — the inaccuracy the paper's padding strategy (SZ3MR, §III-A)
removes.

The module exposes an :class:`InterpolationPlan` describing the exact
traversal (anchor slices plus an ordered list of steps); compression and
decompression iterate the same plan so the quantization-code stream needs no
positional metadata.

The traversal depends only on the shape, so plans are cached per shape and
every slice is also provided in a *batched* form with a leading
``slice(None)``: a stack of same-shape arrays on axis 0 is predicted in one
pass by :func:`predict_step` with ``batched=True``.  Prediction is
elementwise arithmetic on the same neighbours, so a batched pass is
bit-identical to predicting each array on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

__all__ = [
    "InterpolationStep",
    "InterpolationPlan",
    "max_interpolation_level",
    "build_plan",
    "predict_step",
    "count_extrapolated_points",
]

#: Supported interpolation kernels.
INTERPOLATION_MODES = ("linear", "cubic")


@dataclass(frozen=True)
class InterpolationStep:
    """One (level, axis) sub-step of the interpolation traversal.

    ``target`` selects (as a tuple of slices) the points predicted in this
    step; the same slices are valid on the original and the reconstructed
    array because the traversal is defined purely by the array shape.
    ``batched`` is ``target`` behind a leading ``slice(None)`` (the same
    points of every array in a stack) and ``count`` the number of points one
    array contributes — the length of this step's quantization-code segment.
    """

    level: int
    axis: int
    target: Tuple[slice, ...]
    batched: Tuple[slice, ...]
    count: int


@dataclass(frozen=True)
class InterpolationPlan:
    """Full traversal: anchor slices, ordered steps and the level count.

    ``n_codes`` is the code count of one array (every point but the
    anchors), and ``batched_anchor`` the anchor slices behind a leading
    ``slice(None)``.
    """

    shape: Tuple[int, ...]
    max_level: int
    anchor: Tuple[slice, ...]
    steps: Tuple[InterpolationStep, ...]
    batched_anchor: Tuple[slice, ...]
    n_codes: int

    @property
    def anchor_stride(self) -> int:
        return 1 << self.max_level

    def n_targets(self, step: InterpolationStep) -> int:
        """Number of points predicted by ``step`` (needed by the decoder)."""
        return step.count


def _slice_len(sl: slice, n: int) -> int:
    start = sl.start or 0
    step = sl.step or 1
    stop = n if sl.stop is None else min(sl.stop, n)
    if start >= stop:
        return 0
    return (stop - start + step - 1) // step


def max_interpolation_level(shape: Tuple[int, ...]) -> int:
    """Number of interpolation levels for a given shape.

    Defined so the anchor stride ``2^max_level`` reaches the last index of the
    longest axis when that axis has ``2^n + 1`` points — the layout produced
    by the paper's padding strategy, in which case no anchor extrapolation is
    needed at all.
    """
    m = max(int(s) for s in shape)
    if m <= 1:
        return 0
    return max(1, int(math.ceil(math.log2(max(m - 1, 1)))))


def build_plan(shape: Tuple[int, ...]) -> InterpolationPlan:
    """The deterministic interpolation traversal for ``shape``.

    Plans are frozen and cached per shape, so every block of a level shares
    one.
    """
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ValueError(f"invalid shape {shape}")
    return _build_plan(shape)


@lru_cache(maxsize=256)
def _build_plan(shape: Tuple[int, ...]) -> InterpolationPlan:
    ndim = len(shape)
    max_level = max_interpolation_level(shape)
    anchor_stride = 1 << max_level
    anchor = tuple(slice(0, None, anchor_stride) for _ in range(ndim))

    steps: List[InterpolationStep] = []
    for level in range(max_level, 0, -1):
        s = 1 << (level - 1)
        for axis in range(ndim):
            target = []
            for d in range(ndim):
                if d < axis:
                    target.append(slice(0, None, s))
                elif d == axis:
                    target.append(slice(s, None, 2 * s))
                else:
                    target.append(slice(0, None, 2 * s))
            lengths = [_slice_len(sl, n) for sl, n in zip(target, shape)]
            # Skip degenerate steps with no targets (very anisotropic shapes).
            if all(lengths):
                steps.append(InterpolationStep(
                    level=level, axis=axis, target=tuple(target),
                    batched=(slice(None),) + tuple(target), count=math.prod(lengths),
                ))
    n_anchors = math.prod(_slice_len(sl, n) for sl, n in zip(anchor, shape))
    return InterpolationPlan(
        shape=shape, max_level=max_level, anchor=anchor, steps=tuple(steps),
        batched_anchor=(slice(None),) + anchor, n_codes=math.prod(shape) - n_anchors,
    )


def predict_step(
    recon: np.ndarray, step: InterpolationStep, mode: str = "cubic", batched: bool = False
) -> np.ndarray:
    """Predict the target points of ``step`` from already-reconstructed points.

    Returns an array with the shape of ``recon[step.target]``.  Interior
    points are interpolated (linearly or with the 4-point cubic kernel); the
    trailing points without an upper neighbour are extrapolated from the lower
    neighbour (constant extrapolation), reproducing original SZ3 behaviour.
    With ``batched=True``, ``recon`` is a stack of arrays on axis 0 and the
    result has the shape of ``recon[step.batched]``.
    """
    if mode not in INTERPOLATION_MODES:
        raise ValueError(f"mode must be one of {INTERPOLATION_MODES}, got {mode!r}")
    target = step.batched if batched else step.target
    axis = step.axis + 1 if batched else step.axis
    s = 1 << (step.level - 1)

    target_view = recon[target]
    n_t = target_view.shape[axis]
    if n_t == 0:
        return np.empty(target_view.shape, dtype=np.float64)

    # Coarse-grid neighbours along `axis`: positions 0, 2s, 4s, ...
    coarse_slices = list(target)
    coarse_slices[axis] = slice(0, None, 2 * s)
    coarse = recon[tuple(coarse_slices)]

    co = np.moveaxis(coarse, axis, 0).astype(np.float64, copy=False)
    n_c = co.shape[0]
    pred_m = np.empty((n_t,) + co.shape[1:], dtype=np.float64)

    # Linear interpolation wherever the upper neighbour exists.
    n_lin = min(n_t, n_c - 1)
    if n_lin > 0:
        pred_m[:n_lin] = 0.5 * (co[:n_lin] + co[1 : n_lin + 1])
    # Constant extrapolation from the lower neighbour for the remainder.
    if n_lin < n_t:
        pred_m[n_lin:n_t] = co[n_lin:n_t]

    # Cubic refinement on interior targets with two neighbours on each side.
    if mode == "cubic" and n_c >= 4:
        m0 = 1
        m1 = min(n_t, n_c - 2)
        if m1 > m0:
            pred_m[m0:m1] = (
                -co[m0 - 1 : m1 - 1]
                + 9.0 * co[m0:m1]
                + 9.0 * co[m0 + 1 : m1 + 1]
                - co[m0 + 2 : m1 + 2]
            ) / 16.0

    return np.moveaxis(pred_m, 0, axis)


def count_extrapolated_points(shape: Tuple[int, ...]) -> int:
    """Number of points predicted by extrapolation rather than interpolation.

    This quantifies the sub-optimal predictions discussed around Figures 7
    and 8 of the paper: a ``2^n``-sized axis forces extrapolation at every
    level, whereas a padded ``2^n + 1`` axis needs none.
    """
    plan = build_plan(shape)
    total = 0
    for step in plan.steps:
        axis = step.axis
        s = 1 << (step.level - 1)
        n_t = _slice_len(step.target[axis], shape[axis])
        coarse_len = _slice_len(slice(0, None, 2 * s), shape[axis])
        n_extrap_per_line = max(0, n_t - (coarse_len - 1))
        other = 1
        for d, (sl, n) in enumerate(zip(step.target, shape)):
            if d != axis:
                other *= _slice_len(sl, n)
        total += n_extrap_per_line * other
    return total
