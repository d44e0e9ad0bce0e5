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
from .tasks import _parse

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


#: Values on each entry line of a Matrix Market file, by its header's field.
_MTX_VALUES = {b"real": 1, b"double": 1, b"integer": 1,
               b"unsigned-integer": 1, b"complex": 2, b"pattern": 0}


def _check_mtx_lines(data: bytes, path: Path) -> None:
    """Check the size and entry lines of a Matrix Market file whose header
    ``mmread`` knows: each holds the header's count of numbers, sizes and
    indices are digit runs, and values follow ``tasks._parse`` (integers in
    an integer field). ``mmread`` reads a token's leading number and drops
    the rest of the line, so it takes ``4 3 1_0``, ``4 3 1x`` and
    ``4 3 1 2 3`` as 1.0; a malformed line here is an ``IngestionError``
    naming it. Non-finite values are left to ``load_matrix``'s own check."""
    lines = data.split(b"\n")
    header = lines[0].lower().split()
    if len(header) < 4 or header[2] not in (b"coordinate", b"array") \
            or header[3] not in _MTX_VALUES:
        return  # mmread's own error
    coordinate = header[2] == b"coordinate"
    integral = header[3].endswith(b"integer")
    size_line = True
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or (size_line and line.startswith(b"%")):
            continue
        if size_line:
            n_digits = 3 if coordinate else 2
        else:
            n_digits = 2 if coordinate else 0
        want = n_digits + (0 if size_line else _MTX_VALUES[header[3]])
        if len(tokens) != want:
            raise IngestionError(
                f"{path.name}:{lineno}: expected {want} numbers in a "
                f"{'size' if size_line else 'entry'} line of "
                f"{header[2].decode()} {header[3].decode()} data, got "
                f"{len(tokens)}", line=lineno)
        for i, token in enumerate(tokens):
            if i < n_digits:
                ok = token.isdigit()
            elif integral:
                ok = token.removeprefix(b"-").isdigit()
            else:
                ok = _parse(token.decode("latin-1")) is not None
            if not ok:
                raise IngestionError(f"{path.name}:{lineno}: cannot parse "
                                     f"{token.decode('latin-1')!r}",
                                     line=lineno)
        size_line = False


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
            _check_mtx_lines(data, path)
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

