"""Byte-mutation fuzzing of the files esnkit reads.

Each case overwrites, deletes or inserts bytes in a valid file and reads
the result in a child forked from the test process, so that a crash (a
parser's segfault, say) or a hang fails the test instead of killing
pytest. A command-line read exits 0, 3 or 4 (a series file may also exit
2, for its minimum length: a data file is never a config error), and a
failing one prints exactly one JSON error line and no warning. A task
loader returns a bundle, or raises an ``EsnKitError`` or ``OSError`` with
no warning before it.
"""

import contextlib
import io
import json
import os
import signal
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnkit.cli import main
from esnkit.errors import EsnKitError
from esnkit.reservoirs import gen_er
from esnkit.storage import save_matrix, save_reservoir
from esnkit.tasks import TaskBundle, load_arabic_digits, load_laser


def _frames(recordings) -> str:
    """Cepstral blocks: one 13-value line per frame, a blank line after
    each recording."""
    return "".join("".join(f"{v} " + " ".join(["0.25"] * 12) + "\n"
                           for v in rec) + "\n" for rec in recordings)


def _saved(save, name: str) -> dict[str, bytes]:
    """The files that ``save(path)`` writes for ``name``, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        save(Path(tmp) / name)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


_W = np.array([[0.0, 0.5, 0.0, -0.25], [0.75, 0.0, 0.0, 0.0],
               [0.0, -1.5, 0.125, 0.0], [0.0, 0.0, 1.0, 0.0]])
_MTX = _saved(lambda p: save_matrix(_W, p), "w.mtx")["w.mtx"]
_RESERVOIR = _saved(lambda p: save_reservoir(gen_er(6, 2, seed=0), p), "res")

#: A 14x14 matrix whose weights sit in its first four rows, with no comment
#: line: a byte deleted at the start of its size line makes it 4x14.
_MTX14 = (b"%%MatrixMarket matrix coordinate real general\n14 14 3\n"
          b"1 2 0.5\n2 1 -0.25\n4 3 1\n")

#: The valid files each kind of case mutates. The short laser record and
#: the two-frame recordings sit one mutation from a length check, the
#: 14x14 matrix and the 1x1 CSV matrix one from a shape check; the series
#: and one matrix end without a newline.
_SEEDS = {
    "series": [b"0.5\n-1.25\n\n3\n1e-3\n  2.5e2  \n-7\n0.0\n4.75\r\n1\n-2"],
    "laser": ["".join(f"{v}\n" for v in values).encode() for values in [
        (12, 40, 97, 140, 201, 255, 180, 90, 33, 5, 0, 18, 64, 130, 222,
         250, 170, 80, 20, 3), (7, 200, 31, 96)]],
    "mfcc": [_frames([[0.5 + 0.1 * r, -0.25, 1.0 - 0.05 * r]
                      for r in range(10)]).encode(),
             _frames([[r + 1, -r] for r in range(10)]).encode()],
    "mtx": [_MTX, _MTX14, _MTX.rstrip(b"\n")],
    "csv": [_saved(lambda p: save_matrix(_W, p), "w.csv")["w.csv"],
            b"0.5\n"],
    "json": [_RESERVOIR["res.json"]],
    "reservoir_mtx": [_RESERVOIR["res.mtx"]],
}

#: Byte runs that the number rules and the parsers treat specially.
_CHUNKS = st.binary(min_size=1, max_size=4) | st.sampled_from([
    b"_", b"nan", b"inf", b"e999", b"e-9", b"9", b"-", b"+", b".", b",",
    b"#", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\x0c",
    "١٢".encode(), "\u00a0".encode(), b"\xef\xbb\xbf", b"0x1",
    b"1e308", b"{", b"}", b"[", b"]", b'"', b"null", b"true"])

_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["overwrite", "delete", "insert"]),
    st.integers(-(1 << 16), 1 << 16), st.booleans(), _CHUNKS),
    min_size=1, max_size=3)


def _mutate(data: bytes, mutations) -> bytes:
    """``data`` with each ``(kind, position, at_line_start, chunk)``
    applied in turn; the position wraps around the current length (so a
    negative one counts from the end), and moves on to the next line's
    start where ``at_line_start`` is set."""
    for kind, at, at_line_start, chunk in mutations:
        at %= len(data) + 1
        if at_line_start:
            at = data.find(b"\n", at) + 1 or len(data)
        if kind == "overwrite":
            data = data[:at] + chunk + data[at + len(chunk):]
        elif kind == "delete":
            data = data[:at] + data[at + len(chunk):]
        else:
            data = data[:at] + chunk + data[at:]
    return data


def _in_child(run) -> dict:
    """What ``run()`` returns, run in a child forked from this process. A
    child that raises, dies by a signal or runs past 60 s fails the test."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            os.close(read_fd)
            signal.alarm(60)
            try:
                report = {"result": run()}
            except Exception:
                report = {"crash": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as out:
                json.dump(report, out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, wait = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(wait)
    assert code == 0 and text, f"child exited with {code}"
    report = json.loads(text)
    assert "crash" not in report, report.get("crash")
    return report["result"]


def _run_cli(*argv) -> dict:
    """Exit code, stderr and the warnings of one CLI call."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return {"code": code, "stderr": stderr.getvalue(),
            "warnings": [str(w.message) for w in caught]}


def _run_loader(loader, *paths) -> dict:
    """The error a task loader raises (``None`` for a bundle) and the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            bundle = loader(*paths)
            assert isinstance(bundle, TaskBundle)
            raised = None
        except (EsnKitError, OSError) as exc:
            raised = f"{type(exc).__name__}: {exc}"
    return {"raised": raised, "warnings": [str(w.message) for w in caught]}


def _write_case(tmp: Path, kind: str, data: bytes, which: str) -> list[Path]:
    """Write the files of one case, ``data`` as its mutated one; returns
    the paths the reader is given."""
    if kind == "mfcc":
        train, test = tmp / "train.txt", tmp / "test.txt"
        train.write_bytes(data if which == "train" else _SEEDS["mfcc"][0])
        test.write_bytes(data if which == "test" else _SEEDS["mfcc"][0])
        return [train, test]
    if kind == "json":
        (tmp / "res.mtx").write_bytes(_RESERVOIR["res.mtx"])
    if kind == "reservoir_mtx":
        (tmp / "res.json").write_bytes(_RESERVOIR["res.json"])
        (tmp / "res.mtx").write_bytes(data)
        return [tmp / "res.json"]
    path = tmp / {"series": "series.txt", "laser": "laser.txt",
                  "mtx": "w.mtx", "csv": "w.csv", "json": "res.json"}[kind]
    path.write_bytes(data)
    return [path]


def _reader(kind: str, paths: list[Path], out: Path):
    if kind == "series":
        return lambda: _run_cli("psd", "--input", paths[0], "-o", out)
    if kind == "laser":
        return lambda: _run_loader(load_laser, *paths)
    if kind == "mfcc":
        return lambda: _run_loader(load_arabic_digits, *paths)
    if kind == "reservoir_mtx":
        return lambda: _run_cli("psd", "--reservoir", paths[0], "--trials", 1,
                                "--samples", 16, "-o", out)
    return lambda: _run_cli("spectrum", paths[0], "--bins", 4, "-o", out)


@pytest.mark.parametrize("kind", sorted(_SEEDS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data(), mutations=_MUTATIONS,
       which=st.sampled_from(["train", "test"]))
def test_mutated_file(kind, data, mutations, which):
    data = _mutate(data.draw(st.sampled_from(_SEEDS[kind])), mutations)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_case(Path(tmp), kind, data, which)
        result = _in_child(_reader(kind, paths, Path(tmp) / "o"))
    if "code" in result:
        assert result["code"] in ((0, 2, 3, 4) if kind == "series"
                                  else (0, 3, 4)), result
        if result["code"] != 0:
            lines = result["stderr"].strip().splitlines()
            assert len(lines) == 1, result
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert result["warnings"] == [], result
    elif result["raised"] is not None:
        assert result["warnings"] == [], result


def test_seeds_read_cleanly(tmp_path):
    # Unmutated, every seed file is read without an error.
    for kind, seeds in sorted(_SEEDS.items()):
        for index, seed in enumerate(seeds):
            case = tmp_path / f"{kind}{index}"
            case.mkdir()
            paths = _write_case(case, kind, seed, "train")
            result = _in_child(_reader(kind, paths, case / "o"))
            assert result.get("code", 0) == 0, (kind, index, result)
            assert result.get("raised") is None, (kind, index, result)
