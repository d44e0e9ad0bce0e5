"""Independent oracles used to verify the library's numerics.

Everything here deliberately avoids the code paths under test: the
characteristic polynomial comes from trace power sums, least squares from
extended-precision arithmetic, reservoir trajectories from scalar
recursions written out longhand, closed-loop forecasts one rollout and
one step at a time, memory capacity one delay and one solve at a time, and
cycle densities from an explicit enumeration of short cycles.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from esnkit.esn import _DENSE_CUTOFF


def charpoly_coeffs(A: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    recursion (monic, highest degree first)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def charpoly_roots(A: np.ndarray) -> np.ndarray:
    """Eigenvalues obtained as characteristic-polynomial roots."""
    return np.roots(charpoly_coeffs(A))


def spectra_distance(a, b) -> float:
    """Largest pairwise distance of the optimal matching between two
    complex multisets (Hungarian assignment)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert len(a) == len(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def highprec_ridge(design: np.ndarray, target: np.ndarray,
                   ridge: float, dps: int = 50) -> np.ndarray:
    """Ridge solution from the normal equations at ``dps`` decimal digits."""
    import mpmath as mp

    with mp.workdps(dps):
        X = mp.matrix(design.tolist())
        y = mp.matrix(target.tolist())
        G = X.T * X
        for i in range(G.rows):
            G[i, i] += mp.mpf(ridge)
        w = mp.lu_solve(G, X.T * y)
        return np.array([float(w[i]) for i in range(w.rows)])


def ring_states(n: int, weight: float, gain: float, input_node: int,
                drive) -> np.ndarray:
    """Longhand scalar recursion for the directed-ring reservoir."""
    T = len(drive)
    x = [0.0] * n
    out = np.zeros((T, n))
    for t in range(T):
        new = [0.0] * n
        for i in range(n):
            z = weight * x[(i - 1) % n]
            if i == input_node:
                z += gain * drive[t]
            new[i] = np.tanh(z)
        x = new
        out[t] = x
    return out


def cycle_density_longhand(W, max_length: int = 3) -> tuple[dict[int, float], int]:
    """Signed cycle density per length by enumerating every simple directed
    cycle of length 1..max_length (at most 3) in a dict of out-edges.

    Returns ``(density, edge_count)``: each cycle adds ``length * sign`` of
    its weight product, and the net sum is divided by the edge count.
    """
    A = sp.csr_array(W)
    A.sum_duplicates()
    A.eliminate_zeros()
    coo = A.tocoo()
    edge_count = coo.nnz
    if edge_count == 0:
        return {length: 0.0 for length in range(1, max_length + 1)}, 0

    out: dict[int, dict[int, float]] = {}
    for i, j, v in zip(coo.row, coo.col, coo.data):
        out.setdefault(int(i), {})[int(j)] = float(v)

    net = {}
    # length 1: self-loops
    signed = sum(np.sign(out[i][i]) for i in out if i in out[i])
    net[1] = 1 * signed

    if max_length >= 2:
        signed = 0.0
        for i, nbrs in out.items():
            for j, w_ij in nbrs.items():
                if j > i and i in out.get(j, {}):
                    signed += np.sign(w_ij * out[j][i])
        net[2] = 2 * signed

    if max_length >= 3:
        signed = 0.0
        for i, nbrs in out.items():
            for j, w_ij in nbrs.items():
                if j == i or j < i:
                    continue
                for k, w_jk in out.get(j, {}).items():
                    if k == i or k == j or k < i:
                        continue
                    w_ki = out.get(k, {}).get(i)
                    if w_ki is not None:
                        signed += np.sign(w_ij * w_jk * w_ki)
        net[3] = 3 * signed

    density = {length: float(net[length]) / edge_count
               for length in range(1, max_length + 1)}
    return density, edge_count


def multi_step_errors_longhand(reservoir, readout, states: np.ndarray,
                               series: np.ndarray, start: int, horizon: int,
                               anchors: int) -> np.ndarray:
    """Closed-loop errors at the final step of ``horizon``-step rollouts
    from evenly spaced anchors of a teacher-forced pass (``states`` over
    ``series``), one rollout and one step at a time.

    The products are the plain matrix-vector ones (dense up to
    ``esn._DENSE_CUTOFF``, CSR above), so the library's batched loop must
    match this bitwise. A rollout whose output leaves [-1e6, 1e6] scores
    infinity.
    """
    W = (reservoir.W.toarray() if reservoir.n <= _DENSE_CUTOFF
         else sp.csr_matrix(reservoir.W))
    w_state, w_input = readout[:-1], readout[-1]
    starts = np.linspace(start, len(series) - 1 - horizon, anchors).astype(int)
    errors = np.empty(len(starts))
    for idx, t in enumerate(starts):
        x, u = states[t], float(series[t])
        for _ in range(horizon):
            y = float(w_state @ x + w_input * u)
            if not np.isfinite(y) or abs(y) > 1e6:
                y = np.inf
                break
            u = y
            x = np.tanh(W @ x + reservoir.w_in * u + reservoir.w_ofb * y)
        errors[idx] = y - series[t + horizon]
    return errors


def memory_capacity_longhand(states: np.ndarray, drive: np.ndarray,
                             tau_max: int, start: int,
                             ridge: float) -> np.ndarray:
    """Per-delay recall, one ridge solve per delay: fit on the first half
    of rows ``start..T-1``, square the Pearson correlation on the second
    half, and stop after 5 consecutive delays below 1e-3."""
    u = np.asarray(drive, dtype=float)
    design = np.column_stack([states, u])
    rows = np.arange(start, len(u))
    tr, te = rows[:len(rows) // 2], rows[len(rows) // 2:]
    gram = design[tr].T @ design[tr] + ridge * np.eye(design.shape[1])
    coeffs = []
    for tau in range(1, tau_max + 1):
        w = scipy.linalg.solve(gram, design[tr].T @ u[tr - tau],
                               assume_a="pos")
        pred = design[te] @ w - np.mean(design[te] @ w)
        target = u[te - tau] - np.mean(u[te - tau])
        denom = np.sqrt(np.sum(pred * pred) * np.sum(target * target))
        coeffs.append(0.0 if denom == 0.0
                      else (np.sum(pred * target) / denom) ** 2)
        if len(coeffs) >= 5 and max(coeffs[-5:]) < 1e-3:
            break
    return np.asarray(coeffs)
