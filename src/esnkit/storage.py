"""File formats: Matrix Market / CSV matrices, JSON reports and manifests."""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import DataError, IngestionError, ParameterError
from .reservoirs import Normalization, Reservoir, ReservoirMeta

__all__ = [
    "save_matrix",
    "load_matrix",
    "save_reservoir",
    "load_reservoir",
    "psd_to_csv",
    "write_json",
    "read_json",
]


def _plain(value):
    """``json.dump``'s hook for what it cannot write: a numpy array or
    scalar as its ``tolist()``, a complex number as ``[re, im]``."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_plain)
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
    """Read a ``.mtx`` or ``.csv`` file holding a non-empty square matrix of
    finite real weights. A NUL byte is an ``IngestionError`` before any parser
    sees the bytes (``mmread`` can crash the interpreter on one), and a
    ``.mtx`` file without a final newline gets one."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"matrix file not found: {path}")
    if path.suffix not in (".mtx", ".csv"):
        raise DataError(f"unsupported matrix format {path.suffix!r}")
    data = path.read_bytes()
    nul = data.find(b"\0")
    if nul >= 0:
        raise IngestionError(f"{path.name}: NUL byte at offset {nul}")
    try:
        if path.suffix == ".mtx":
            # mmread reads past the end of a last line that has no newline
            # but trailing bytes, and crashes the interpreter.
            if not data.endswith(b"\n"):
                data += b"\n"
            W = sp.csr_array(sp.coo_array(scipy.io.mmread(io.BytesIO(data))))
        else:
            # loadtxt warns on a file with no data; the shape check below
            # is its one error.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                W = sp.csr_array(np.atleast_2d(
                    np.loadtxt(io.BytesIO(data), delimiter=",")))
    except (ValueError, OverflowError) as exc:
        raise IngestionError(f"{path.name}: {exc}") from exc
    if W.shape[0] != W.shape[1] or not W.shape[0]:
        raise DataError(f"{path.name}: expected a non-empty square matrix, "
                        f"got shape {W.shape}")
    if np.iscomplexobj(W.data):
        raise DataError(f"{path.name}: matrix holds complex weights")
    if not np.isfinite(W.data).all():
        raise DataError(f"{path.name}: matrix holds non-finite weights")
    return W


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
    meta = asdict(reservoir.meta)
    # String keys sort as strings ("1", "10", "2"); int keys would not.
    meta["target_cycle_density"] = {
        str(k): v for k, v in meta["target_cycle_density"].items()}
    write_json({"meta": meta, "w_in": reservoir.w_in,
                "w_ofb": reservoir.w_ofb, "matrix_file": matrix_path.name},
               manifest_path)
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


def psd_to_csv(profile, path) -> None:
    """Write a ``PsdProfile`` as ``freq,power`` rows."""
    np.savetxt(path, np.column_stack([profile.freqs, profile.power]),
               delimiter=",", header=f"freq,power (n_averages={profile.n_averages})",
               comments="# ")

