""".mfld snapshots, the package's one binary file kind.

spectral.load_field is strict: no non-finite number in the header,
n_modes a JSON integer, side a finite number > 0, the block filling the
file exactly.  Random byte mutations of a valid file, in the header and
in the block, must either raise FileFormatError or load a field that the
bytes really describe; the explicit examples are headers that once
loaded although they were malformed.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinech.errors import FileFormatError
from sinech.spectral import GridSpec, load_field, random_band_limited, save_field

GRID = GridSpec(8, math.pi)


def _file_bytes(*args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save_field(path, *args)
        return path.read_bytes()


MFLD = _file_bytes(random_band_limited(GRID, 8, 1.0, seed=2), 0.25, "u")


def _split(blob: bytes):
    head, _, body = blob.partition(b"\n")
    return json.loads(head.decode("utf-8")), body


def _with(blob: bytes, **edits) -> bytes:
    """blob with its header keys set to edits (JSON-encoded as given)."""
    header, body = _split(blob)
    header.update(edits)
    return json.dumps(header).encode() + b"\n" + body


# a third digits, so that many header edits change a number and still parse
_BYTES = st.one_of(st.sampled_from(b"0123456789"), st.sampled_from(b'.-+eE"[]{},: ntfaIN'),
                   st.integers(0, 255))
_EDIT = st.tuples(st.sampled_from(["set", "insert", "delete", "cut"]), st.booleans(),
                  st.integers(0, 2**16), _BYTES)


def _mutations(blob: bytes):
    """blob after one to four byte edits, each in the header line or
    anywhere in the file."""
    head_len = blob.index(b"\n") + 1

    def apply(edits) -> bytes:
        data = bytearray(blob)
        for op, in_head, pos, byte in edits:
            pos %= max(1, min(head_len, len(data)) if in_head else len(data))
            if op == "insert":
                data.insert(pos, byte)
            elif op == "cut":
                del data[pos:]
            elif data:
                if op == "set":
                    data[pos] = byte
                else:
                    del data[pos]
        return bytes(data)

    return st.lists(_EDIT, min_size=1, max_size=4).map(apply)


def _read(directory: Path, blob: bytes):
    path = directory / "file"
    path.write_bytes(blob)
    return load_field(path)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(blob=_mutations(MFLD))
@example(blob=_with(MFLD, n_modes=8.5))
@example(blob=_with(MFLD, n_modes="8"))
@example(blob=_with(MFLD, n_modes=True))
@example(blob=_with(MFLD, side="3"))
@example(blob=_with(MFLD, side=math.inf))
@example(blob=_with(MFLD, n_modes=7))  # 49 values claimed over a block of 64
@example(blob=b"[8]" + MFLD[MFLD.index(b"\n"):])  # a header that is no JSON object
def test_mutated_snapshot_raises_or_loads_what_it_holds(tmp_path_factory, blob):
    try:
        z, time, kind = _read(tmp_path_factory.getbasetemp(), blob)
    except FileFormatError:
        return
    header, body = _split(blob)
    n, side = header["n_modes"], header["side"]
    assert type(n) is int and n == z.grid.n_modes
    assert type(side) in (int, float) and math.isfinite(side) and float(side) == z.grid.side
    assert len(body) == 8 * n * n
    # bit for bit: a shifted block can hold NaNs, which array_equal calls unequal
    assert np.array_equal(z.coeff.view(np.uint64),
                          np.frombuffer(body, dtype="<u8").reshape(z.grid.shape))
    assert type(header["time"]) in (int, float) and math.isfinite(header["time"])
    assert time == header["time"]
    assert type(header["kind"]) is str and kind == header["kind"]


def test_valid_files_load_as_written(tmp_path):
    # an integer side and a header key the format does not use are valid
    z, time, kind = _read(tmp_path, _with(MFLD, side=3, note="x"))
    assert z.grid == GridSpec(8, 3.0) and time == 0.25 and kind == "u"
    z, time, kind = _read(tmp_path, MFLD)
    assert _file_bytes(z, time, kind) == MFLD


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_what_the_reader_refuses(tmp_path, bad):
    # a non-finite header number raises ValueError naming its key, and no
    # file is left behind for load_field to refuse later
    path = tmp_path / "field.mfld"
    with pytest.raises(ValueError, match="'time'"):
        save_field(path, random_band_limited(GRID, 8, 1.0, seed=2), time=bad)
    assert list(tmp_path.iterdir()) == []


_BAD_NUMBERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1e400": 10**400,
                "-1e400": -10**400, "True": True}


@pytest.mark.parametrize("key,bad", [
    pytest.param(key, bad, id=f"{name}-mfld-{key}")
    for key in ("time", "side") for name, bad in _BAD_NUMBERS.items()])
def test_non_finite_nested_header_number_names_the_key(tmp_path, key, bad):
    # json.loads reads NaN and Infinity, and a JSON integer beyond the float
    # range; a snapshot's header holding one is refused, naming the key
    header, body = _split(MFLD)
    header[key] = bad
    blob = json.dumps(header).encode() + b"\n" + body
    with pytest.raises(FileFormatError, match=f"'{key}'"):
        _read(tmp_path, blob)
