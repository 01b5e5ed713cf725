import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcs.grouping import (
    bernoulli_selections,
    contiguous_1d,
    draw_bernoulli,
    draw_uniform,
    lines_2d,
    max_manhattan_2d,
    random_groups,
    rect_2d,
    singletons,
    spiral_2d,
    spiral_order,
    strided_1d,
)

from oracles import spiral_order_reference


def assert_partition(gs):
    assert gs.groups.shape == (gs.n // gs.g, gs.g)
    assert np.array_equal(np.sort(gs.groups.ravel()), np.arange(gs.n))


ALL_GENERATORS = [
    strided_1d(16, 4),
    contiguous_1d(16, 4),
    strided_1d(1100, 11),
    contiguous_1d(1100, 11),
    lines_2d(8, 8, 4, "vertical"),
    lines_2d(8, 8, 8, "horizontal"),
    rect_2d(8, 8, 4),
    spiral_2d(8, 8, 4),
    spiral_2d(8, 8, 4, cyclic=True),
    max_manhattan_2d(8, 8, 4),
    random_groups(16, 4, seed=3),
    singletons(12),
]


@pytest.mark.parametrize("gs", ALL_GENERATORS, ids=lambda g: f"{g.label}-n{g.n}")
def test_partition_invariant(gs):
    assert_partition(gs)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(
        ["singletons", "strided", "contiguous", "vlines", "hlines", "rect", "spiral",
         "cyclic_spiral", "max_manhattan", "random"]
    ),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    data=st.data(),
)
def test_partition_invariant_on_random_shapes(kind, rows, cols, data):
    # every generator over a random valid shape: n/g groups of g, an exact
    # partition of 0..n-1, and the same groups when called again
    def pick_g(n):
        return data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))

    if kind == "rect":
        cols = 2 * max(1, cols // 2)
    n = rows * cols
    if kind == "singletons":
        make, args = singletons, (n,)
    elif kind in ("strided", "contiguous"):
        make, args = {"strided": strided_1d, "contiguous": contiguous_1d}[kind], (n, pick_g(n))
    elif kind == "random":
        make, args = random_groups, (n, pick_g(n), data.draw(st.integers(0, 2**32 - 1)))
    elif kind == "vlines":
        make, args = lines_2d, (rows, cols, pick_g(rows), "vertical")
    elif kind == "hlines":
        make, args = lines_2d, (rows, cols, pick_g(cols), "horizontal")
    elif kind == "rect":
        make, args = rect_2d, (rows, cols, 2 * pick_g(rows))
    elif kind == "max_manhattan":
        make, args = max_manhattan_2d, (rows, cols, pick_g(n))
    else:
        make, args = spiral_2d, (rows, cols, pick_g(n), kind == "cyclic_spiral")
    gs = make(*args)
    assert gs.n == n
    assert_partition(gs)
    again = make(*args)
    assert again.label == gs.label and np.array_equal(again.groups, gs.groups)


def test_strided():
    gs = strided_1d(16, 4)
    assert np.array_equal(gs.group(0), [0, 4, 8, 12])
    assert np.array_equal(gs.group(1), [1, 5, 9, 13])
    gs = strided_1d(1100, 11)
    assert np.array_equal(gs.group(0), np.arange(0, 1100, 100))
    assert gs.n_groups == 100


def test_contiguous():
    gs = contiguous_1d(16, 4)
    assert np.array_equal(gs.group(0), [0, 1, 2, 3])
    gs = contiguous_1d(1100, 11)
    assert gs.n_groups == 100
    assert np.array_equal(gs.group(1), np.arange(11, 22))
    whole = contiguous_1d(8, 8)
    assert np.array_equal(whole.group(0), np.arange(8))


def test_g1_structures_coincide():
    a, b = strided_1d(10, 1), contiguous_1d(10, 1)
    assert a.label == b.label == "singletons"
    assert np.array_equal(a.groups, b.groups)
    assert np.array_equal(a.groups, singletons(10).groups)


def test_divisibility_errors():
    with pytest.raises(ValueError):
        strided_1d(10, 3)
    with pytest.raises(ValueError):
        rect_2d(8, 8, 6)  # g/2 = 3 does not divide 8
    with pytest.raises(ValueError):
        lines_2d(8, 8, 3, "vertical")
    with pytest.raises(ValueError):
        rect_2d(8, 8, 5)  # odd g


def test_lines():
    gs = lines_2d(8, 8, 4, "vertical")
    # first group: 4 consecutive pixels down column 0
    assert np.array_equal(gs.group(0), [0, 8, 16, 24])
    assert gs.n_groups == 16
    gs = lines_2d(8, 8, 8, "horizontal")
    assert np.array_equal(gs.group(0), np.arange(8))
    assert gs.n_groups == 8
    assert lines_2d(32, 32, 8, "vertical").n_groups == 128


def test_rect():
    gs = rect_2d(8, 8, 4)
    assert gs.n_groups == 16
    assert np.array_equal(np.sort(gs.group(0)), [0, 1, 8, 9])  # 2x2 tile
    assert rect_2d(32, 32, 8).n_groups == 128
    dominoes = rect_2d(4, 4, 2)
    assert np.array_equal(np.sort(dominoes.group(0)), [0, 1])


def test_spiral_order_against_reference():
    for rows, cols in [(8, 8), (4, 6), (5, 3), (1, 7), (6, 1), (1, 1)]:
        assert np.array_equal(spiral_order(rows, cols), spiral_order_reference(rows, cols))


def test_spiral_groups():
    gs = spiral_2d(8, 8, 4)
    assert np.array_equal(gs.group(0), [0, 1, 2, 3])  # first leg: top row
    order = spiral_order(8, 8)
    cyc = spiral_2d(8, 8, 4, cyclic=True)
    assert np.array_equal(cyc.group(0), order[[0, 16, 32, 48]])
    line = spiral_2d(1, 8, 4)
    assert np.array_equal(line.group(0), [0, 1, 2, 3])


def test_max_manhattan_hand_case():
    gs = max_manhattan_2d(2, 2, 2)
    assert np.array_equal(gs.group(0), [0, 3])
    assert np.array_equal(gs.group(1), [1, 2])


def test_max_manhattan_partition_and_singletons():
    assert_partition(max_manhattan_2d(8, 8, 4))
    gs = max_manhattan_2d(2, 3, 1)
    # seeds in increasing corner distance, row-major tie-break
    assert np.array_equal(gs.groups.ravel(), [0, 1, 3, 2, 4, 5])


def test_random_groups_deterministic():
    a = random_groups(16, 4, seed=9)
    b = random_groups(16, 4, seed=9)
    assert np.array_equal(a.groups, b.groups)
    assert a.label == "random_groups_s9"
    assert_partition(a)
    assert not np.array_equal(a.groups, random_groups(16, 4, seed=10).groups)


def test_random_groups_pair_probability():
    # chance that indices 0 and 1 land in the same group is (g-1)/(n-1)
    n, g, draws = 16, 4, 10000
    hits = 0
    for seed in range(draws):
        gs = random_groups(n, g, seed)
        rows = np.flatnonzero((gs.groups == 0).any(axis=1) | (gs.groups == 1).any(axis=1))
        hits += rows.size == 1
    p = (g - 1) / (n - 1)
    sigma = (p * (1 - p) / draws) ** 0.5
    assert abs(hits / draws - p) <= 3 * sigma


def test_draw_uniform():
    gs = strided_1d(16, 4)
    rng = np.random.default_rng(0)
    full = draw_uniform(gs, 16, rng)
    assert np.array_equal(full.omega, np.arange(16))
    one = draw_uniform(gs, 4, rng)
    assert one.m == 4 and one.selected_groups.size == 1
    assert np.array_equal(np.sort(gs.group(one.selected_groups[0])), one.omega)
    with pytest.raises(ValueError):
        draw_uniform(gs, 6, rng)
    with pytest.raises(ValueError):
        draw_uniform(gs, 20, rng)


def test_draw_uniform_frequency():
    gs = strided_1d(16, 4)
    m, draws = 8, 10000
    rng = np.random.default_rng(123)
    counts = np.zeros(gs.n_groups)
    for _ in range(draws):
        ss = draw_uniform(gs, m, rng)
        counts[ss.selected_groups] += 1
    p = (m // gs.g) / gs.n_groups
    sigma = (p * (1 - p) / draws) ** 0.5
    assert np.all(np.abs(counts / draws - p) <= 3 * sigma + 1e-12)


def test_draw_bernoulli():
    gs = contiguous_1d(16, 4)
    rng = np.random.default_rng(0)
    assert draw_bernoulli(gs, 0, rng).omega.size == 0
    assert np.array_equal(draw_bernoulli(gs, 16, rng).omega, np.arange(16))
    draws = 10000
    sizes = np.array([draw_bernoulli(gs, 8, rng).m for _ in range(draws)])
    p = 0.5
    mean = gs.n_groups * p * gs.g
    var = gs.n_groups * p * (1 - p) * gs.g**2
    assert abs(sizes.mean() - mean) <= 3 * (var / draws) ** 0.5
    with pytest.raises(ValueError):
        draw_bernoulli(gs, 17, rng)


@settings(max_examples=100, deadline=None)
@given(
    gs=st.sampled_from(ALL_GENERATORS),
    eighths=st.integers(0, 8),
    trials=st.integers(0, 40),
    cut=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_bernoulli_selections_are_successive_draws(gs, eighths, trials, cut, seed):
    # row i is the selection of the i-th of `trials` draw_bernoulli calls, the
    # generator ends in the same state, and drawing the rows in two chunks
    # (cut anywhere) gives the same rows and state again
    m = eighths * gs.n // 8
    rng_rows, rng_draws, rng_chunks = (np.random.default_rng(seed) for _ in range(3))
    sel = bernoulli_selections(gs, m, trials, rng_rows)
    assert sel.shape == (trials, gs.n_groups) and sel.dtype == bool
    for row in sel:
        assert np.array_equal(np.flatnonzero(row), draw_bernoulli(gs, m, rng_draws).selected_groups)
    assert rng_rows.bit_generator.state == rng_draws.bit_generator.state
    cut = min(cut, trials)
    chunks = [bernoulli_selections(gs, m, size, rng_chunks) for size in (cut, trials - cut)]
    assert np.array_equal(np.concatenate(chunks), sel)
    assert rng_chunks.bit_generator.state == rng_rows.bit_generator.state
