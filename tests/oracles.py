"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they verify: the sphere oracle never
enumerates sign patterns, the LP oracle solves the split linear program by
basic-solution enumeration, the spiral reference walks ring by ring, and the
Monte-Carlo validator loops draw and reduce one trial at a time.
"""

import itertools
import math

import numpy as np

from groupcs.grouping import draw_bernoulli


def norm_2to1_sphere_oracle(m, rng, samples=200000, polish_iters=200, starts=50):
    """max ||m f||_1 over unit f: dense random sampling plus subgradient
    ascent f <- normalize(f + eta * m^T sign(m f)) from the best candidates."""
    m = np.asarray(m, dtype=float)
    k = m.shape[1]
    f = rng.standard_normal((samples, k))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    vals = np.sum(np.abs(f @ m.T), axis=1)
    order = np.argsort(vals)[::-1]
    best = float(vals[order[0]])
    for idx in order[:starts]:
        x = f[idx].copy()
        eta = 0.5
        for _ in range(polish_iters):
            grad = m.T @ np.sign(m @ x)
            x_new = x + eta * grad
            nx = np.linalg.norm(x_new)
            if nx == 0:
                break
            x_new /= nx
            v_new = float(np.sum(np.abs(m @ x_new)))
            if v_new >= best:
                best = v_new
                x = x_new
            else:
                eta *= 0.7
        best = max(best, float(np.sum(np.abs(m @ x))))
    return best


def l1_min_vertex_oracle(a, y, feas_tol=1e-9):
    """Exact min ||c||_1 s.t. a c = y for real a by enumerating the basic
    feasible solutions of the nonnegative split min 1'(p+q), [a,-a][p;q]=y."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = a.shape
    cols = np.hstack([a, -a])
    combos = np.array(list(itertools.combinations(range(2 * n), m)))
    mats = cols[:, combos].transpose(1, 0, 2)  # (n_combos, m, m)
    dets = np.linalg.det(mats)
    keep = np.abs(dets) > 1e-10
    rhs = np.broadcast_to(y[:, None], (int(keep.sum()), m, 1))
    sols = np.linalg.solve(mats[keep], rhs)[..., 0]
    feasible = np.min(sols, axis=1) >= -feas_tol
    if not np.any(feasible):
        raise ValueError("no basic feasible solution found")
    return float(np.min(np.sum(np.abs(sols[feasible]), axis=1)))


def spiral_order_reference(rows, cols):
    """Clockwise inward spiral from the top-left, built by peeling rings."""
    grid = [[r * cols + c for c in range(cols)] for r in range(rows)]
    out = []
    while grid:
        out.extend(grid.pop(0))
        if grid and grid[0]:
            for row in grid:
                out.append(row.pop())
        if grid:
            out.extend(reversed(grid.pop()))
        if grid and grid[0]:
            for row in reversed(grid):
                out.append(row.pop(0))
    return np.asarray(out, dtype=np.int64)


def gram_deviations_loop(e, t, gs, m, trials, rng):
    """Spectral deviation of (N/m) A_{omega,T}^H A_{omega,T} from I, one
    ``draw_bernoulli`` trial at a time."""
    eye = np.eye(len(t))
    deviations = np.empty(trials)
    for i in range(trials):
        at = e.a[np.ix_(draw_bernoulli(gs, m, rng).omega, t.indices)]
        y = (e.n / m) * (at.conj().T @ at) - eye
        deviations[i] = float(np.max(np.abs(np.linalg.eigvalsh(y))))
    return deviations


def cross_row_energy_loop(e, t, gs, m, t0, trials, rng):
    """Mean squared norm of the centred row t0 of A_omega^H A_{omega,T}, one
    ``draw_bernoulli`` trial at a time."""
    a_t0, a_t = e.a[:, t0].conj(), e.a[:, t.indices]
    mean_row = (m / e.n) * (a_t0 @ a_t)
    acc = 0.0
    for _ in range(trials):
        omega = draw_bernoulli(gs, m, rng).omega
        row = a_t0[omega] @ a_t[omega] - mean_row
        acc += float(np.real(np.vdot(row, row)))
    return acc / trials


def hadamard_matrix(n):
    """Sylvester Hadamard matrix; n must be a power of two."""
    assert n >= 1 and n & (n - 1) == 0
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def two_proportion_fisher_pvalue(s1, n1, s2, n2):
    from scipy.stats import fisher_exact

    table = [[s1, n1 - s1], [s2, n2 - s2]]
    return float(fisher_exact(table)[1])
