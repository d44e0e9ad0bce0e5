"""Dense spectral analysis of real nonsymmetric reservoir matrices.

All reservoirs used here are small enough (N <= ~2000) that full dense
eigendecomposition is the right tool; the heavy lifting is delegated to
LAPACK's Hessenberg-reduction + shifted-QR driver via ``numpy.linalg``.
Every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionError,
    DomainError,
    ParameterError,
)

__all__ = [
    "SpectrumReport",
    "eigenvalues",
    "spectral_radius",
    "avg_modulus",
    "normalize_spectral_radius",
    "normalize_avg_modulus",
    "spectrum_report",
]


def _as_dense(W) -> np.ndarray:
    """Validate and densify a square real matrix."""
    if sp.issparse(W):
        W = W.toarray()
    A = np.asarray(W, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("matrix contains non-finite entries")
    return A


def eigenvalues(W) -> np.ndarray:
    """Full complex spectrum of a real square matrix, with multiplicity.

    Parameters
    ----------
    W : array_like or sparse matrix
        Real square matrix (densified internally).

    Returns
    -------
    numpy.ndarray
        Complex eigenvalues, length N, in LAPACK order.

    Raises
    ------
    DimensionError, DomainError
        On non-square or non-finite input.
    ConvergenceError
        If the QR iteration fails to converge, or the spectrum is not
        conjugate-symmetric to within 1e-8 of the spectral radius.
    """
    A = _as_dense(W)
    try:
        # eigvals returns float64 when every eigenvalue is real.
        vals = np.linalg.eigvals(A).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(
            f"eigenvalue iteration did not converge: {exc}") from exc
    _check_conjugate_pairs(vals)
    return vals


def _check_conjugate_pairs(vals: np.ndarray) -> None:
    """Spectra of real matrices must be closed under conjugation."""
    radius = float(np.max(np.abs(vals))) if len(vals) else 0.0
    if radius == 0.0:
        return
    scale = 1e-8 * radius
    complex_vals = vals[np.abs(vals.imag) > scale]
    if len(complex_vals) == 0:
        return
    # Greedy pairing is enough here: sums of a conjugate-closed multiset of
    # imaginary parts vanish, and each value must have a partner nearby.
    if abs(complex_vals.imag.sum()) > scale * len(complex_vals):
        raise ConvergenceError("spectrum is not conjugate-symmetric")


def spectral_radius(W) -> float:
    """Largest eigenvalue modulus of ``W``."""
    return float(np.max(np.abs(eigenvalues(W))))


def avg_modulus(W) -> float:
    """Mean eigenvalue modulus, ``sum(|lambda_i|) / N``.

    Invariant under permutation similarity and equivariant under scaling:
    ``avg_modulus(c*W) == |c| * avg_modulus(W)``.
    """
    return float(np.mean(np.abs(eigenvalues(W))))


#: The statistic of the eigenvalue moduli that each normalization mode sets.
_STATISTICS = {"spectral_radius": np.max, "avg_modulus": np.mean}


def _rescale(W, mode: str, target: float):
    """Rescale ``W`` so the ``mode`` statistic of its spectrum equals ``target``.

    Returns the rescaled matrix (CSR if sparse) and its spectrum. Eigenvalues
    scale linearly with the matrix, so that spectrum is the input's times the
    same factor and needs no second decomposition.
    """
    A = _as_dense(W)
    vals = eigenvalues(A)
    stat = float(_STATISTICS[mode](np.abs(vals)))
    if stat <= 1e-12 * max(np.linalg.norm(A), 1.0):
        raise DegenerateSpectrumError(f"{mode} is zero; cannot rescale")
    factor = target / stat
    scaled = (W * factor).tocsr() if sp.issparse(W) else A * factor
    return scaled, vals * factor


def normalize_spectral_radius(W, alpha: float):
    """Rescale ``W`` so its spectral radius equals ``alpha``.

    Raises ``DegenerateSpectrumError`` for (numerically) nilpotent input.
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    return _rescale(W, "spectral_radius", alpha)[0]


def normalize_avg_modulus(W, target: float):
    """Rescale ``W`` so its mean eigenvalue modulus equals ``target``.

    Uses the linearity ``|lambda(c W)| = c |lambda(W)|``, so a single
    spectrum computation suffices.
    """
    if target <= 0:
        raise ParameterError("target must be positive")
    return _rescale(W, "avg_modulus", target)[0]


def _modulus_histogram(moduli: np.ndarray, n_bins: int) -> list[tuple[float, float]]:
    if n_bins < 1:
        raise ParameterError("n_bins must be >= 1")
    hi = float(moduli.max())
    if hi == 0.0:
        hi = 1.0  # zero matrix: all mass collapses into the first bin
    counts, edges = np.histogram(moduli, bins=n_bins, range=(0.0, hi))
    widths = np.diff(edges)
    density = counts / (len(moduli) * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return [(float(c), float(d)) for c, d in zip(centers, density)]


@dataclass
class SpectrumReport:
    """Full spectrum of a reservoir matrix plus derived statistics.

    ``eigenvalues`` is the complex spectrum with multiplicity;
    ``modulus_histogram`` holds ``(bin_center, density)`` pairs normalized
    so that the bin-width-weighted densities sum to one.
    """

    eigenvalues: np.ndarray
    spectral_radius: float
    avg_modulus: float
    modulus_histogram: list[tuple[float, float]]


def spectrum_report(W, n_bins: int = 40) -> SpectrumReport:
    """Compute the spectrum of ``W`` together with its summary statistics."""
    vals = eigenvalues(W)
    moduli = np.abs(vals)
    return SpectrumReport(
        eigenvalues=vals,
        spectral_radius=float(moduli.max()),
        avg_modulus=float(moduli.mean()),
        modulus_histogram=_modulus_histogram(moduli, n_bins),
    )
