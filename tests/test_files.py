"""The one binary file format behind .mfld snapshots and .ckpt checkpoints.

Both kinds are read by spectral.read_binary, which is strict: no
non-finite number anywhere in the header, n_modes a JSON integer, side a
finite number > 0, the blocks filling the file exactly.  Random byte
mutations of a valid file, in the header and in the blocks, must either
raise FileFormatError or load an object that the bytes really describe;
the explicit examples are headers that once loaded although they were
malformed.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinech.analysis import random_pair_state
from sinech.errors import FileFormatError
from sinech.integrator import SchemeConfig, Stepper, load_checkpoint, save_checkpoint
from sinech.model import Nonlinearity, SourceTerm
from sinech.spectral import GridSpec, load_field, random_band_limited, save_field

GRID = GridSpec(8, math.pi)


def _file_bytes(save, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(path, *args)
        return path.read_bytes()


def _checkpoint() -> Stepper:
    # two steps in, so the Adams-Bashforth history block is present
    stepper = Stepper(random_pair_state(GRID, 4, 1.0, seed=3), Nonlinearity(1.0, 0.0, -1.0),
                      SourceTerm(random_band_limited(GRID, 3, 0.5, seed=4)),
                      SchemeConfig(dt=1e-3))
    stepper.advance()
    stepper.advance()
    return stepper


MFLD = _file_bytes(save_field, random_band_limited(GRID, 8, 1.0, seed=2), 0.25, "u")
CKPT = _file_bytes(save_checkpoint, _checkpoint())


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


def _read(directory: Path, load, blob: bytes):
    path = directory / "file"
    path.write_bytes(blob)
    return load(path)


def _load(tmp_path_factory, load, blob: bytes):
    """What load makes of blob, or None for a FileFormatError."""
    try:
        return _read(tmp_path_factory.getbasetemp(), load, blob)
    except FileFormatError:
        return None


def _assert_grid_matches(header: dict, body: bytes, grid: GridSpec, n_blocks: int):
    n, side = header["n_modes"], header["side"]
    assert type(n) is int and n == grid.n_modes
    assert type(side) in (int, float) and math.isfinite(side) and float(side) == grid.side
    assert len(body) == 8 * n * n * n_blocks


def _finite_number(val) -> bool:
    return type(val) in (int, float) and math.isfinite(val)


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
    loaded = _load(tmp_path_factory, load_field, blob)
    if loaded is None:
        return
    z, time, kind = loaded
    header, body = _split(blob)
    _assert_grid_matches(header, body, z.grid, 1)
    # bit for bit: a shifted block can hold NaNs, which array_equal calls unequal
    assert np.array_equal(z.coeff.view(np.uint64),
                          np.frombuffer(body, dtype="<u8").reshape(z.grid.shape))
    assert _finite_number(header["time"]) and time == header["time"]
    assert type(header["kind"]) is str and kind == header["kind"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(blob=_mutations(CKPT))
@example(blob=_with(CKPT, n_modes=8.5))
@example(blob=_with(CKPT, step_count=2.5))
@example(blob=_with(CKPT, version=True))
@example(blob=_with(CKPT, version=1.0))
def test_mutated_checkpoint_raises_or_loads_what_it_holds(tmp_path_factory, blob):
    ckpt = _load(tmp_path_factory, load_checkpoint, blob)
    if ckpt is None:
        return
    header, body = _split(blob)
    assert type(header["version"]) is int and header["version"] == 1
    _assert_grid_matches(header, body, ckpt.state.grid, len(header["blocks"]))
    assert _finite_number(header["time"]) and ckpt.state.time == header["time"]
    assert type(header["step_count"]) is int and ckpt.step_count == header["step_count"]


def test_valid_files_load_as_written(tmp_path):
    # an integer side and a header key the format does not use are valid
    z, time, kind = _read(tmp_path, load_field, _with(MFLD, side=3, note="x"))
    assert z.grid == GridSpec(8, 3.0) and time == 0.25 and kind == "u"
    ckpt = _read(tmp_path, load_checkpoint, CKPT)
    assert ckpt.step_count == 2 and ckpt._fhat_prev is not None
    assert _file_bytes(save_checkpoint, ckpt) == CKPT


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_what_the_reader_refuses(tmp_path, bad):
    # a non-finite header number raises ValueError naming its key, and no
    # file is left behind for read_binary to refuse later
    path = tmp_path / "field.mfld"
    with pytest.raises(ValueError, match="'time'"):
        save_field(path, random_band_limited(GRID, 8, 1.0, seed=2), time=bad)
    assert not path.exists()
    ckpt = _checkpoint()
    ckpt.state.time = bad
    with pytest.raises(ValueError, match="'time'"):
        save_checkpoint(tmp_path / "a.ckpt", ckpt)
    ckpt = _checkpoint()
    ckpt.cfg = SchemeConfig(dt=1e-3, safeguard_tol=bad)
    with pytest.raises(ValueError, match="'scheme.safeguard_tol'"):
        save_checkpoint(tmp_path / "b.ckpt", ckpt)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("block,key", [("scheme", "safeguard_tol"), ("nonlinearity", "a1"),
                                       ("nonlinearity", "lambda_bound"), ("scheme", "dt"),
                                       ("mfld", "time"), ("mfld", "side"), ("ckpt", "time")])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -10**400, True],
                         ids=["nan", "inf", "-inf", "1e400", "-1e400", "True"])
def test_non_finite_nested_header_number_names_the_key(tmp_path, block, key, bad):
    # json.loads reads NaN and Infinity, and a JSON integer beyond the float
    # range; a checkpoint holding one in its scheme or nonlinearity would load
    # and fail (or mislead) on resume.  Block mfld or ckpt: a top-level key
    # of a snapshot or a checkpoint, named bare.
    load, blob = (load_field, MFLD) if block == "mfld" else (load_checkpoint, CKPT)
    header, body = _split(blob)
    node, dotted = (header[block], f"{block}.{key}") if block in header else (header, key)
    node[key] = bad
    blob = json.dumps(header).encode() + b"\n" + body
    with pytest.raises(FileFormatError, match=f"'{dotted}'"):
        _read(tmp_path, load, blob)
