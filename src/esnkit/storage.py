"""File formats: Matrix Market / CSV matrices, JSON reports and manifests."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import DataError, IngestionError, ParameterError
from .metrics import MemoryProfile
from .reservoirs import Normalization, Reservoir, ReservoirMeta
from .signals import PsdProfile
from .spectral import SpectrumReport

__all__ = [
    "save_matrix",
    "load_matrix",
    "save_reservoir",
    "load_reservoir",
    "spectrum_to_dict",
    "memory_profile_to_dict",
    "psd_to_csv",
    "psd_to_dict",
    "write_json",
    "read_json",
]


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_matrix(W, path) -> None:
    """Write a matrix as Matrix Market coordinate (.mtx) or dense CSV (.csv)."""
    path = Path(path)
    if path.suffix == ".mtx":
        scipy.io.mmwrite(str(path), sp.coo_matrix(W))
    elif path.suffix == ".csv":
        dense = W.toarray() if sp.issparse(W) else np.asarray(W)
        np.savetxt(path, dense, delimiter=",")
    else:
        raise DataError(f"unsupported matrix format {path.suffix!r}")


def load_matrix(path) -> sp.csr_array:
    path = Path(path)
    if not path.exists():
        raise DataError(f"matrix file not found: {path}")
    try:
        if path.suffix == ".mtx":
            W = sp.csr_array(sp.coo_array(scipy.io.mmread(str(path))))
        elif path.suffix == ".csv":
            W = sp.csr_array(np.atleast_2d(np.loadtxt(path, delimiter=",")))
        else:
            raise DataError(f"unsupported matrix format {path.suffix!r}")
    except ValueError as exc:
        raise IngestionError(f"{path.name}: {exc}") from exc
    if not np.isfinite(W.data).all():
        raise DataError(f"{path.name}: matrix holds non-finite weights")
    return W


def _meta_to_dict(meta: ReservoirMeta) -> dict:
    d = asdict(meta)
    d["target_cycle_density"] = {str(k): v
                                 for k, v in meta.target_cycle_density.items()}
    if isinstance(meta.seed, (int, np.integer)):
        d["seed"] = int(meta.seed)
    elif meta.seed is not None:
        d["seed"] = [int(s) for s in meta.seed]
    return d


def _meta_from_dict(d: dict) -> ReservoirMeta:
    norm = d.get("normalization")
    return ReservoirMeta(
        family=d["family"],
        n=d["n"],
        avg_degree=d["avg_degree"],
        seed=d.get("seed"),
        target_cycle_density={int(k): v
                              for k, v in d.get("target_cycle_density", {}).items()},
        normalization=None if norm is None else Normalization(**norm),
        params=d.get("params", {}),
        warnings=d.get("warnings", []),
    )


def save_reservoir(reservoir: Reservoir, basepath) -> tuple[Path, Path]:
    """Write ``<base>.mtx`` (weights) and ``<base>.json`` (manifest)."""
    base = Path(basepath)
    matrix_path = base.with_suffix(".mtx")
    manifest_path = base.with_suffix(".json")
    save_matrix(reservoir.W, matrix_path)
    write_json({
        "meta": _meta_to_dict(reservoir.meta),
        "w_in": reservoir.w_in.tolist(),
        "w_ofb": reservoir.w_ofb.tolist(),
        "matrix_file": matrix_path.name,
    }, manifest_path)
    return matrix_path, manifest_path


def load_reservoir(manifest_path) -> Reservoir:
    """Read a manifest written by :func:`save_reservoir` and its matrix; a
    malformed manifest is a ``DataError``."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataError(f"reservoir manifest not found: {manifest_path}")
    try:
        doc = read_json(manifest_path)
        W = load_matrix(manifest_path.parent / doc["matrix_file"])
        w_in = np.asarray(doc["w_in"], dtype=float)
        w_ofb = np.asarray(doc["w_ofb"], dtype=float)
        meta = _meta_from_dict(doc["meta"])
    except (ValueError, TypeError, KeyError, AttributeError,
            ParameterError) as exc:
        raise DataError(f"reservoir manifest {manifest_path}: "
                        f"{type(exc).__name__}: {exc}") from None
    if (w_in.shape != (W.shape[0],) or w_ofb.shape != (W.shape[0],)
            or not np.isfinite([w_in, w_ofb]).all()):
        raise DataError(f"reservoir manifest {manifest_path}: 'w_in' and "
                        f"'w_ofb' must each hold {W.shape[0]} finite weights")
    return Reservoir(W=W, w_in=w_in, w_ofb=w_ofb, meta=meta)


def spectrum_to_dict(report: SpectrumReport) -> dict:
    return {
        "eigenvalues": [[float(v.real), float(v.imag)]
                        for v in report.eigenvalues],
        "spectral_radius": report.spectral_radius,
        "avg_modulus": report.avg_modulus,
        "modulus_histogram": [[c, d] for c, d in report.modulus_histogram],
    }


def memory_profile_to_dict(profile: MemoryProfile) -> dict:
    return {"per_delay": profile.per_delay.tolist(), "total": profile.total,
            "tau_max_used": profile.tau_max_used,
            "input_kind": profile.input_kind}


def psd_to_csv(profile: PsdProfile, path) -> None:
    np.savetxt(path, np.column_stack([profile.freqs, profile.power]),
               delimiter=",", header=f"freq,power (n_averages={profile.n_averages})",
               comments="# ")


def psd_to_dict(profile: PsdProfile) -> dict:
    return {"freqs": profile.freqs.tolist(), "power": profile.power.tolist(),
            "n_averages": profile.n_averages}
