"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they verify: the sphere oracle never
enumerates sign patterns, the LP oracle solves the split linear program by
basic-solution enumeration, the spiral reference walks ring by ring, and the
Monte-Carlo validator loops draw and reduce one trial at a time, the
operator references form every Gram and product densely and run the Haar
transform by concatenated copies, and the penalty-factor references
enumerate the signs of one matrix at a time and run one Burer-Monteiro start
at a time.  The one-trial certificate references (``dual_certificate``,
``proved_recovery``, ``cross_gram``) form each trial's support submatrix and
solve with it directly, where the sweep batches one QR per trial.  The
sweep drivers (``sweep_alone``, ``verdicts_alone``) run one request of the
library's own sweep path in a pool of its own, as a command would.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from groupcs import harness
from groupcs.harness import random_coefficients, trial_rng
from groupcs.operators import MeasurementEnsemble, SupportSet, _columns
from groupcs.recovery import TrialPool, nre, solve_trials


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


def bernoulli_rows(gs, m, rng):
    """The sorted rows of one Bernoulli draw: each group of ``gs`` included
    independently when its uniform is below m/n."""
    return np.sort(gs.groups[rng.random(gs.n_groups) < m / gs.n].ravel())


def gram_deviations_loop(e, t, gs, m, trials, rng):
    """Spectral deviation of (N/m) A_{omega,T}^H A_{omega,T} from I, one
    ``bernoulli_rows`` trial at a time."""
    eye = np.eye(len(t))
    deviations = np.empty(trials)
    for i in range(trials):
        at = e.a[np.ix_(bernoulli_rows(gs, m, rng), t.indices)]
        y = (e.n / m) * (at.conj().T @ at) - eye
        deviations[i] = float(np.max(np.abs(np.linalg.eigvalsh(y))))
    return deviations


def cross_row_energy_loop(e, t, gs, m, t0, trials, rng):
    """Mean squared norm of the centred row t0 of A_omega^H A_{omega,T}, one
    ``bernoulli_rows`` trial at a time."""
    a_t0, a_t = e.a[:, t0].conj(), e.a[:, t.indices]
    mean_row = (m / e.n) * (a_t0 @ a_t)
    acc = 0.0
    for _ in range(trials):
        omega = bernoulli_rows(gs, m, rng)
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


def unitarity_residual_dense(entries):
    """Max-abs entry of E^H E - I by the dense product."""
    n = entries.shape[0]
    return float(np.max(np.abs(entries.conj().T @ entries - np.eye(n))))


def dense_basis(b):
    """The dense matrix of basis b, formed by the library's closed forms
    (all of its columns)."""
    return _columns(b, np.arange(b.n))


def basis_reference(b):
    """The dense matrix of basis b by its direct construction: the identity
    by ``np.eye``, the DFT by its exponential formula, the 2-D DFT by
    ``np.kron`` and the Haar matrix by transforming unit images; a
    ``custom`` basis's own matrix."""
    if b.kind == "custom":
        return b.matrix
    if b.kind == "identity":
        return np.eye(b.n)
    if b.kind == "dft1d":
        return _dft_reference(b.n)
    rows, cols = b.shape2d
    if b.kind == "dft2d":
        return np.kron(_dft_reference(rows), _dft_reference(cols))
    return haar2d_matrix_reference(rows, cols, b.levels)


def _dft_reference(n):
    # the exponent reduced mod n: e^(-2 pi i jk/n) = e^(-2 pi i (jk mod n)/n)
    # exactly, and the reduced phase stays within 2 pi
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return np.exp(-2j * np.pi * jk / n) / math.sqrt(n)


def ensemble_product(v, u):
    """A = V^H U by the dense product of the reference matrices, cast to
    real when its imaginary part is at most 1e-13, as ``make_ensemble``
    defines it."""
    a = basis_reference(v).conj().T @ basis_reference(u)
    if np.iscomplexobj(a) and np.max(np.abs(a.imag)) <= 1e-13:
        a = np.ascontiguousarray(a.real)
    return a


def _haar_step(x, axis):
    """One orthonormal averaging/differencing step along ``axis``."""
    x = np.moveaxis(x, axis, -1)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.concatenate([(even + odd), (even - odd)], axis=-1) / math.sqrt(2)
    return np.moveaxis(out, -1, axis)


def _haar_step_inv(c, axis):
    c = np.moveaxis(c, axis, -1)
    half = c.shape[-1] // 2
    lo, hi = c[..., :half], c[..., half:]
    out = np.empty_like(c)
    out[..., 0::2] = (lo + hi) / math.sqrt(2)
    out[..., 1::2] = (lo - hi) / math.sqrt(2)
    return np.moveaxis(out, -1, axis)


def haar2d_analysis_reference(img, levels):
    """Multi-level 2-D Haar analysis of the images in the last two axes, one
    copied step per axis and level."""
    rows, cols = img.shape[-2:]
    out = np.array(img, dtype=np.result_type(img, np.float64), copy=True)
    r, c = rows, cols
    for _ in range(levels):
        block = _haar_step(out[..., :r, :c], axis=-1)
        out[..., :r, :c] = _haar_step(block, axis=-2)
        r //= 2
        c //= 2
    return out


def haar2d_synthesis_reference(coeffs, levels):
    """Inverse of ``haar2d_analysis_reference``."""
    rows, cols = coeffs.shape[-2:]
    out = np.array(coeffs, dtype=np.result_type(coeffs, np.float64), copy=True)
    r, c = rows >> levels, cols >> levels
    for _ in range(levels):
        r *= 2
        c *= 2
        block = _haar_step_inv(out[..., :r, :c], axis=-2)
        out[..., :r, :c] = _haar_step_inv(block, axis=-1)
    return out


def haar2d_matrix_reference(rows, cols, levels):
    """Synthesis matrix of the 2-D Haar basis: row i is the analysis of the
    i-th unit image."""
    n = rows * cols
    eye = np.eye(n).reshape(n, rows, cols)
    return np.ascontiguousarray(haar2d_analysis_reference(eye, levels).reshape(n, n))


def norm_2to1_exact_real_loop(m):
    """Sign enumeration of one real matrix, 2^16 candidates at a time:
    max ||m^T s||_2 over s in {-1,1}^g with s_0 = +1."""
    g = m.shape[0]
    best = 0.0
    total = 1 << (g - 1)
    bits_of = np.arange(g - 1, dtype=np.int64)
    for start in range(0, total, 1 << 16):
        codes = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        signs = np.empty((codes.size, g))
        signs[:, 0] = 1.0
        signs[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> bits_of) & 1)
        vals = signs @ m
        energy = np.einsum("ij,ij->i", vals, vals)
        best = max(best, float(np.max(energy)))
    return math.sqrt(best)


@dataclass
class CertificateReport:
    invertible: bool
    min_singular: float  # smallest singular value of A_{omega,T}
    pi: np.ndarray | None
    max_offsupport: float
    holds: bool


def support_factor_qr(e, t, k):
    """``recovery._SupportProof.factor`` with a QR and singular values for
    every trial: the rank rule by the factorization alone, where the library
    refutes a trial with an all-zero column of A_S before factoring.  Reads
    the dense A."""
    a = e.a
    b, m = t.omegas.shape
    t.idx = np.nonzero(t.coeffs)[1].reshape(b, k)
    z = np.take_along_axis(t.coeffs, t.idx, axis=1)
    t.sign = z = z / np.abs(z)
    t.ginv = np.zeros((b, k, k), dtype=np.result_type(a, t.coeffs, np.float64))
    t.valid = np.zeros(b, dtype=bool)
    refuted = np.zeros(b, dtype=bool)
    if k == 0:
        return refuted
    r = np.linalg.qr(a[t.omegas[:, :, None], t.idx[:, None, :]], mode="r")
    sv = np.linalg.svd(r, compute_uv=False)
    rank = np.sum(sv > sv[:, :1] * max(m, k) * np.finfo(np.float64).eps, axis=1)
    for i in np.flatnonzero(rank < k):
        vh = np.linalg.svd(r[i])[2]
        refuted[i] = np.linalg.norm((vh @ z[i])[rank[i]:]) > 1e-8 * math.sqrt(k)
    if m >= k:
        t.valid = sv[:, -1] > 1e-5
        for i in np.flatnonzero(t.valid):
            r_inv = np.linalg.inv(r[i])
            t.ginv[i] = r_inv @ r_inv.conj().T
    return refuted


def cross_gram(a_omega: np.ndarray, t: SupportSet) -> np.ndarray:
    """A_omega^H A_{omega,T}: N x |T|; off-support rows drive the certificate."""
    return a_omega.conj().T @ a_omega[:, t.indices]


def dual_certificate(
    e: MeasurementEnsemble,
    omega,
    t: SupportSet,
    z: np.ndarray,
) -> CertificateReport:
    """Evaluate the l1 dual certificate for support t and sign sequence z.

    The candidate is pi = A_omega^H A_{omega,T} (A_{omega,T}^H A_{omega,T})^{-1} z;
    the certificate holds when the support Gram matrix is invertible, pi
    matches z on the support, and |pi| stays strictly below 1 elsewhere
    (implemented as <= 1 - 1e-9).
    """
    rows = np.asarray(omega, dtype=np.int64)
    z = np.asarray(z)
    if z.shape != (len(t),):
        raise ValueError("sign sequence length must equal the support size")
    a_om = e.a[rows]
    at = a_om[:, t.indices]
    gram = at.conj().T @ at
    # the Gram matrix's smallest eigenvalue is the square of A_{omega,T}'s
    min_singular = math.sqrt(max(float(np.linalg.eigvalsh(gram)[0]), 0.0))
    if min_singular <= 1e-5:
        return CertificateReport(False, min_singular, None, math.inf, False)
    coeffs = np.linalg.solve(gram, z.astype(gram.dtype))
    pi = a_om.conj().T @ (at @ coeffs)
    sign_ok = float(np.max(np.abs(pi[t.indices] - z))) <= 1e-8
    comp = t.complement(e.n)
    max_off = float(np.max(np.abs(pi[comp]))) if comp.size else 0.0
    holds = sign_ok and max_off <= 1.0 - 1e-9
    return CertificateReport(True, min_singular, pi, max_off, holds)


def proved_recovery(e: MeasurementEnsemble, omega, c: np.ndarray) -> bool | None:
    """Decide without a solve whether c is the unique l1 minimizer given the
    rows ``omega``, when a proof does; None when neither proof applies.  This
    is the one-trial reference of the sweep's rank rule and iteration-0
    certificate in ``recovery.solve_trials``.

    With S = supp(c) and z = sign(c_S), checked in this order:

    - False when A_{omega,S} is numerically rank-deficient (sigma_min <=
      sigma_max * max(m, |S|) * eps, the default tolerance of ``matrix_rank``)
      and z has a component in its null space (norm above 1e-8 ||z||).  Then
      no dual vector matches z on S, so c is not an l1 minimizer: along that
      component h, c + t h is feasible and ||c + t h||_1 < ||c||_1 for a
      small t of the right sign.  When z lies in the row space, c may still
      be one of many minimizers, which the solver can return, so the trial
      is left undecided.
    - True when ``dual_certificate(e, omega, S, z)`` holds: c is the unique
      minimizer.
    """
    rows = np.asarray(omega, dtype=np.int64)
    s = np.flatnonzero(c)
    if s.size == 0:
        return None
    z = c[s] / np.abs(c[s])
    at = e.a[np.ix_(rows, s)]
    # projection of z onto the row space of A_{omega,S}, truncated at the
    # same tolerance as the rank
    row_part, _, rank, _ = np.linalg.lstsq(at, at @ z, rcond=None)
    if rank < s.size:
        if np.linalg.norm(z - row_part) > 1e-8 * np.linalg.norm(z):
            return False
        return None
    return True if dual_certificate(e, rows, SupportSet(s), z).holds else None


def sweep_alone(e, gs, t, cfg, solver=None):
    """The MinMResult of one sweep (``harness._sweep``) run alone in a
    ``TrialPool`` with verdicts; the grid is not checked."""
    return TrialPool(e, solver, verdicts=True).run([harness._sweep(e, gs, t, cfg)])[0]


def verdicts_alone(e, gs, t, m, trials, *, master_seed=0, success_nre=1e-3, solver=None):
    """(success, route) of each trial of ``trials`` at m, decided by one
    ``harness._verdicts`` request run alone in a ``TrialPool``."""
    request = harness._verdicts(e, gs, t, m, trials, master_seed, success_nre)
    return TrialPool(e, solver, verdicts=True).run([request])[0]


def direct_successes(e, t, m, trials, master_seed, success_nre=1e-3):
    """Successes among ``trials`` trials that sample m of the N rows
    uniformly at random (no groups), each drawing its rows and then its
    coefficients from ``trial_rng(master_seed, "direct_index", m, j)``,
    decided as sweep trials are."""
    omegas, coeffs = [], []
    for j in range(trials):
        rng = trial_rng(master_seed, "direct_index", m, j)
        omegas.append(np.sort(rng.permutation(e.n)[:m]))
        coeffs.append(random_coefficients(e, t, rng))
    results, routes = solve_trials(e, np.array(omegas), np.array(coeffs), verdicts=True)
    return sum(
        route in ("certified", "dual") or (route == "solved" and nre(c, r.c_hat) <= success_nre)
        for c, r, route in zip(coeffs, results, routes)
    )
