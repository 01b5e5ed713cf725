"""Group structures over the measurement domain and grouped sample draws.

A group structure partitions the N measurement-row indices into N/g disjoint
groups of size g.  Sampling then selects whole groups, either a fixed number
uniformly without replacement or each group independently (Bernoulli).

2-D structures index pixels in row-major order: pixel (r, c) of a
rows x cols grid is r * cols + c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GroupStructure:
    n: int
    g: int
    groups: np.ndarray  # (n_groups, g) int64
    label: str

    def __post_init__(self):
        groups = np.asarray(self.groups, dtype=np.int64)
        object.__setattr__(self, "groups", groups)
        if self.g < 1 or self.n % self.g != 0:
            raise ValueError(f"group size {self.g} must divide n={self.n}")
        if groups.shape != (self.n // self.g, self.g):
            raise ValueError(f"groups shape {groups.shape} inconsistent with n, g")
        flat = np.sort(groups.ravel())
        if not np.array_equal(flat, np.arange(self.n)):
            raise ValueError("groups do not partition 0..n-1")
        groups.setflags(write=False)

    @property
    def n_groups(self) -> int:
        return self.n // self.g

    def group(self, i: int) -> np.ndarray:
        return self.groups[i]


@dataclass(frozen=True)
class SampleSet:
    """Union of selected groups, kept sorted."""

    omega: np.ndarray
    selected_groups: np.ndarray
    m: int

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=np.int64)
        sel = np.asarray(self.selected_groups, dtype=np.int64)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "selected_groups", sel)
        if omega.size != self.m:
            raise ValueError("sample set size inconsistent with m")
        omega.setflags(write=False)
        sel.setflags(write=False)


def _require_divides(g: int, n: int, what: str = "n"):
    if g < 1 or n % g != 0:
        raise ValueError(f"group size {g} must divide {what}={n}")


def _structure(n, g, groups, label) -> GroupStructure:
    return GroupStructure(n=n, g=g, groups=np.asarray(groups, dtype=np.int64), label=label)


def singletons(n: int) -> GroupStructure:
    return _structure(n, 1, np.arange(n)[:, None], "singletons")


def strided_1d(n: int, g: int) -> GroupStructure:
    """Group i is {i, i + n/g, i + 2n/g, ...}: samples spread over the span."""
    _require_divides(g, n)
    if g == 1:
        return singletons(n)
    stride = n // g
    groups = np.arange(stride)[:, None] + stride * np.arange(g)[None, :]
    return _structure(n, g, groups, "strided1d")


def contiguous_1d(n: int, g: int) -> GroupStructure:
    """Group i is the block {i*g, ..., i*g + g - 1} of adjacent samples."""
    _require_divides(g, n)
    if g == 1:
        return singletons(n)
    groups = np.arange(n).reshape(n // g, g)
    return _structure(n, g, groups, "contiguous1d")


def lines_2d(rows: int, cols: int, g: int, orientation: str) -> GroupStructure:
    """Runs of g consecutive pixels along one column or one row."""
    n = rows * cols
    orientation = orientation.lower()
    if orientation == "vertical":
        _require_divides(g, rows, "rows")
        grid = np.arange(n).reshape(rows, cols)
        # column-major walk so each column splits into rows/g runs
        cells = grid.T.reshape(-1)
        label = "vlines2d"
    elif orientation == "horizontal":
        _require_divides(g, cols, "cols")
        cells = np.arange(n)
        label = "hlines2d"
    else:
        raise ValueError(f"orientation must be vertical or horizontal, got {orientation!r}")
    return _structure(n, g, cells.reshape(n // g, g), label)


def rect_2d(rows: int, cols: int, g: int) -> GroupStructure:
    """Tiling by (g/2)-tall, 2-wide rectangles in row-major tile order."""
    if g % 2 != 0:
        raise ValueError(f"rectangle grouping needs even g, got {g}")
    h = g // 2
    _require_divides(h, rows, "rows")
    _require_divides(2, cols, "cols")
    n = rows * cols
    grid = np.arange(n).reshape(rows, cols)
    tiles = []
    for r0 in range(0, rows, h):
        for c0 in range(0, cols, 2):
            tiles.append(grid[r0 : r0 + h, c0 : c0 + 2].reshape(-1))
    return _structure(n, g, np.asarray(tiles), "rect2d")


def spiral_order(rows: int, cols: int) -> np.ndarray:
    """Pixel indices along an inward clockwise spiral from the top-left."""
    grid = np.arange(rows * cols).reshape(rows, cols)
    out = []
    top, bottom, left, right = 0, rows - 1, 0, cols - 1
    while top <= bottom and left <= right:
        out.extend(grid[top, left : right + 1])
        for r in range(top + 1, bottom + 1):
            out.append(grid[r, right])
        if top < bottom:
            out.extend(grid[bottom, left:right][::-1])
        if left < right:
            for r in range(bottom - 1, top, -1):
                out.append(grid[r, left])
        top += 1
        bottom -= 1
        left += 1
        right -= 1
    return np.asarray(out, dtype=np.int64)


def spiral_2d(rows: int, cols: int, g: int, cyclic: bool = False) -> GroupStructure:
    """Spiral-trajectory grouping.

    ``cyclic=False`` cuts the spiral into consecutive runs of g;
    ``cyclic=True`` deals spiral positions out to the groups round-robin, so
    each group mixes early (outer) and late (inner) trajectory samples.
    """
    n = rows * cols
    _require_divides(g, n)
    order = spiral_order(rows, cols)
    n_groups = n // g
    if cyclic:
        groups = [order[k::n_groups] for k in range(n_groups)]
        label = "cyclic_spiral2d"
    else:
        groups = order.reshape(n_groups, g)
        label = "spiral2d"
    return _structure(n, g, np.asarray(groups), label)


def max_manhattan_2d(rows: int, cols: int, g: int) -> GroupStructure:
    """Greedy far-apart grouping.

    The first group is seeded at the top-left pixel; each following member is
    the remaining pixel maximizing the summed Manhattan distance to the
    group's current members.  Each new group is seeded with the remaining
    pixel closest (Manhattan) to the top-left corner.  All ties break to the
    smallest row-major index.
    """
    n = rows * cols
    _require_divides(g, n)
    rr, cc = np.divmod(np.arange(n), cols)
    remaining = np.ones(n, dtype=bool)
    corner_dist = rr + cc
    groups = np.empty((n // g, g), dtype=np.int64)
    for gi in range(n // g):
        # np.argmin/argmax return the first (lowest-index) extremum
        seed = int(np.argmin(np.where(remaining, corner_dist, np.iinfo(np.int64).max)))
        remaining[seed] = False
        groups[gi, 0] = seed
        dist_sum = np.abs(rr - rr[seed]) + np.abs(cc - cc[seed])
        for slot in range(1, g):
            pick = int(np.argmax(np.where(remaining, dist_sum, -1)))
            remaining[pick] = False
            groups[gi, slot] = pick
            dist_sum += np.abs(rr - rr[pick]) + np.abs(cc - cc[pick])
    return _structure(n, g, groups, "max_manhattan2d")


def random_groups(n: int, g: int, seed: int) -> GroupStructure:
    """Seeded uniformly random permutation chunked into groups of g."""
    _require_divides(g, n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return _structure(n, g, perm.reshape(n // g, g), f"random_groups_s{seed}")


def draw_uniform(gs: GroupStructure, m: int, rng: np.random.Generator) -> SampleSet:
    """Select exactly m/g distinct groups uniformly without replacement."""
    if m % gs.g != 0:
        raise ValueError(f"m={m} must be a multiple of the group size {gs.g}")
    if not 0 <= m <= gs.n:
        raise ValueError(f"m={m} out of range [0, {gs.n}]")
    k = m // gs.g
    sel = np.sort(rng.permutation(gs.n_groups)[:k])
    omega = np.sort(gs.groups[sel].ravel())
    return SampleSet(omega=omega, selected_groups=sel, m=m)


def bernoulli_selections(
    gs: GroupStructure, m: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli group selections of ``trials`` draws, as a trials x n_groups
    bool array: each group is included independently with probability m/n.

    The generator fills the uniforms in row order, so the rows, and the
    generator's final state, equal those of ``trials`` successive
    ``draw_bernoulli`` calls; drawing the rows over several calls gives the
    same rows as one call.
    """
    if not 0 <= m <= gs.n:
        raise ValueError(f"m={m} out of range [0, {gs.n}]")
    return rng.random((trials, gs.n_groups)) < m / gs.n


def draw_bernoulli(gs: GroupStructure, m: int, rng: np.random.Generator) -> SampleSet:
    """Include each group independently with probability m/n (E|omega| = m)."""
    sel = np.flatnonzero(bernoulli_selections(gs, m, 1, rng)[0])
    omega = np.sort(gs.groups[sel].ravel())
    return SampleSet(omega=omega, selected_groups=sel, m=int(omega.size))
