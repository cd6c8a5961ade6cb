"""Sine-basis spectral representation on the square (0, side)^2.

Fields satisfying u = lap(u) = 0 on the boundary are expanded in the
L2-orthonormal eigenbasis of A = -lap with Dirichlet conditions,

    e_jk(x, y) = (2/side) sin(j pi x/side) sin(k pi y/side),
    eigenvalue(j, k) = (j pi/side)^2 + (k pi/side)^2,

truncated to 1 <= j, k <= n_modes.  Fractional powers of A are diagonal
in this basis, which makes the Sobolev-scale norms used throughout the
package cheap modal sums.

Nodal representations live on the cell centres x_p = (p - 1/2)*side/m,
1 <= p <= m; the modal->nodal map is a type-III discrete sine transform
and its inverse a type-II one, each on a real FFT of length m.  There
mode k folds onto 2m - k, and the midpoint sum with weight (side/m)^2
integrates every cosine of frequency below 2m exactly (discrete Parseval
among them); on m = n points the top mode's square sums to m, not m/2,
which both transforms account for.

The transforms go through scipy.fftpack's dst and dct.  They reach the
same pocketfft kernels as scipy.fft's, with the same unnormalised
definitions and bitwise the same values (also in place on strided
views), but skip scipy.fft's backend dispatch, a few microseconds on
each of the thousands of calls a run makes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fftpack

from .errors import ConfigError, DimensionMismatchError, FileFormatError


@dataclass(frozen=True)
class GridSpec:
    """Square-domain discretization: n_modes per axis on (0, side)^2.  The
    eigenvalues and their cubes (the highest power a modal sum weighs by,
    see eigenvalue_power) must be positive finite floats."""

    n_modes: int
    side: float

    def __post_init__(self):
        if not 1 <= self.n_modes <= sys.float_info.max:
            raise ValueError(f"n_modes must be >= 1 and within the float range, "
                             f"got {self.n_modes}")
        if not (self.side > 0.0):
            raise ValueError(f"side must be > 0, got {self.side}")
        k = math.pi / self.side
        lo, hi = 2.0 * k * k, 2.0 * (self.n_modes * k) * (self.n_modes * k)
        if not (lo * lo * lo > 0.0 and hi * hi * hi < math.inf):
            if 0.0 < lo * lo * lo < math.inf:  # side alone is fine: n_modes takes the top out
                raise ValueError(f"n_modes {self.n_modes} puts the largest eigenvalue {hi:g} "
                                 f"of side {self.side:g} or its cube outside the float range")
            raise ValueError(f"side {self.side:g} puts the eigenvalues {lo:g}..{hi:g} of "
                             f"n_modes {self.n_modes} or their cubes outside the float range")

    @property
    def shape(self):
        return (self.n_modes, self.n_modes)


@lru_cache(maxsize=64)
def _power_table(n_modes: int, side: float, p: float) -> np.ndarray:
    j = np.arange(1, n_modes + 1) * np.pi / side
    table = (j[:, None] ** 2 + j[None, :] ** 2) ** p
    table.setflags(write=False)
    return table


def eigenvalue_power(grid: GridSpec, p: float) -> np.ndarray:
    """Read-only (n, n) table of eigenvalue(j, k)**p, 1-based mode indices,
    built once per grid and power (the package weighs by the powers -2 to 3)."""
    return _power_table(grid.n_modes, grid.side, p)


def eigenvalues(grid: GridSpec) -> np.ndarray:
    """Read-only (n, n) table of eigenvalue(j, k)."""
    return eigenvalue_power(grid, 1.0)


def lambda_max(grid: GridSpec) -> float:
    """Largest resolved eigenvalue, 2*(n_modes*pi/side)^2."""
    return 2.0 * (grid.n_modes * np.pi / grid.side) ** 2


def _check_mode(grid: GridSpec, j: int, k: int) -> None:
    n = grid.n_modes
    if not (1 <= j <= n and 1 <= k <= n):
        raise IndexError(
            f"mode ({j}, {k}) outside 1..{n} for n_modes={n}"
        )


@dataclass
class ModalField:
    """Coefficients against the orthonormal sine basis; coeff[j-1, k-1]."""

    grid: GridSpec
    coeff: np.ndarray

    def __post_init__(self):
        self.coeff = np.ascontiguousarray(self.coeff, dtype=np.float64)
        if self.coeff.shape != self.grid.shape:
            raise DimensionMismatchError(
                f"coeff shape {self.coeff.shape} != grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ModalField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def single_mode(cls, grid: GridSpec, j: int, k: int, amp: float = 1.0) -> "ModalField":
        _check_mode(grid, j, k)
        c = np.zeros(grid.shape)
        c[j - 1, k - 1] = amp
        return cls(grid, c)

    def copy(self) -> "ModalField":
        return ModalField(self.grid, self.coeff.copy())

    # Small arithmetic surface; all operands must share the grid.
    def __add__(self, other: "ModalField") -> "ModalField":
        check_same_grid(self, other)
        return ModalField(self.grid, self.coeff + other.coeff)

    def __sub__(self, other: "ModalField") -> "ModalField":
        check_same_grid(self, other)
        return ModalField(self.grid, self.coeff - other.coeff)

    def __mul__(self, scalar: float) -> "ModalField":
        return ModalField(self.grid, self.coeff * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ModalField":
        return ModalField(self.grid, -self.coeff)


def check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise DimensionMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


def quadrature_weight(side: float, n_points: int) -> float:
    """Weight of the midpoint sum over the cell centres of an n_points grid."""
    return (side / n_points) ** 2


@lru_cache(maxsize=64)
def padded_points(n_modes: int, factor: int = 2) -> int:
    """Smallest 5-smooth grid size m > factor * n_modes (scipy's next_fast_len).

    Mode k folds onto 2m - k on the cell centres: m > 2n keeps the cubic's
    retained block alias-free and sums band-4n cosines exactly, m > 3n a
    whole band-3n product.  A larger m changes nothing mathematically, but
    the DST-II/III of length m rides on an FFT of length m, slow when m
    has large prime factors (n_modes = 128, factor 2: 257 is prime).
    """
    return fftpack.next_fast_len(factor * n_modes + 1)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

# Work arrays of the padded-grid hot paths (the stepper's f(u), a log
# row's nodal values and products), keyed by (name, shape, dtype) and
# reused so the large grids are not reallocated on every call: an array
# keeps its contents only until the next user of the same slot.
# Single-threaded use assumed, as everywhere in this package.
_work_pool: dict = {}


def work_array(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The pooled work array `name` of this shape and dtype (uninitialised)."""
    buf = _work_pool.get((name, shape, dtype))
    if buf is None:
        buf = _work_pool[(name, shape, dtype)] = np.empty(shape, dtype)
    return buf


def nodal_values(z: ModalField, n_points: int | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the sine series on the n_points cell-centred grid.

    n_points >= n_modes (defaults to n_modes).  Zero-padding the
    coefficients before the inverse DST-III gives exact point values of
    the band-limited field on the finer grid.  The values are written
    into out (a C-contiguous array of the grid's shape) when given, else
    into a fresh float64 array; the transform runs in place there, in
    out's precision (float32 for a float32 out).

    Pruned: the coefficients are scaled as they are copied in, and the
    axis-0 pass skips the m - n padding columns, which are zero and would
    stay zero.  dstn also transforms axis 0 first, so the values are
    bitwise those of the full 2-D transform of the scaled block.
    """
    n = z.grid.n_modes
    m = n if n_points is None else int(n_points)
    if m < n:
        raise ValueError(f"n_points={m} < n_modes={n}")
    vals = np.empty((m, m)) if out is None else out
    if vals.shape != (m, m):
        raise ValueError(f"out has shape {vals.shape}, need {(m, m)}")
    np.divide(z.coeff, 2.0 * z.grid.side, out=vals[:n, :n])
    if m == n:  # the DST-III weighs the top mode by 1/2
        vals[-1] *= 2.0
        vals[:, -1] *= 2.0
    vals[:n, n:] = 0.0
    vals[n:] = 0.0
    fftpack.dst(vals[:, :n], type=3, axis=0, overwrite_x=True)  # in place on the view
    fftpack.dst(vals, type=3, axis=1, overwrite_x=True)
    return vals


def modal_from_values(values: np.ndarray, side: float, overwrite: bool = False,
                      n_modes: int | None = None) -> np.ndarray:
    """Sine coefficients interpolating values on their own cell-centred
    grid (the inverse of nodal_values there); overwrite=True transforms
    in place, consuming values.

    The transform runs in the precision of values (float32 or float64).
    With n_modes, only the retained (n_modes, n_modes) block is computed
    and returned, as a view into the transformed array: the axis-1 pass
    runs over the first n_modes rows only.  dstn also transforms axis 0
    first, so the block is bitwise that of the full 2-D transform.
    """
    m = values.shape[0]
    n = m if n_modes is None else int(n_modes)
    if not (1 <= n <= m):
        raise ValueError(f"n_modes={n} outside 1..{m}")
    out = fftpack.dst(values, type=2, axis=0, overwrite_x=overwrite)[:n]
    fftpack.dst(out, type=2, axis=1, overwrite_x=True)
    out = out[:, :n]
    out *= side / (2.0 * m * m)
    if n == m:  # the top mode sums its square to m, not m/2
        out[-1] *= 0.5
        out[:, -1] *= 0.5
    return out


def field_integral(z: ModalField) -> float:
    """Exact integral of the sine polynomial over the square.

    Only odd-odd modes contribute: integral of e_jk is
    8*side/(pi^2 j k) for j, k both odd, else zero.
    """
    n = z.grid.n_modes
    j = np.arange(1, n + 1)
    w = np.where(j % 2 == 1, 1.0 / j, 0.0)
    return (8.0 * z.grid.side / np.pi**2) * float(np.einsum("i,ij,j->", w, z.coeff, w))


def gradient_values(z: ModalField, n_points: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values of (du/dx, du/dy) on the n_points cell-centred grid.

    Differentiating the sine series gives a cosine series along the
    differentiated axis, evaluated there by a type-III DCT (its input j
    is the cosine of frequency j) and by a type-III DST along the other.
    """
    n = z.grid.n_modes
    m = n if n_points is None else int(n_points)
    if m < n:
        raise ValueError(f"n_points={m} < n_modes={n}")
    k = min(n, m - 1)  # the cosine of frequency m vanishes at every centre
    scale = (np.arange(1, k + 1) * (np.pi / (2.0 * z.grid.side ** 2)))[:, None]
    ux, uy = np.empty((m, m)), np.empty((m, m))

    def _ddx(coeff, dest):
        # 4 x the coefficients of the cosine-in-x, sine-in-y series of du/dx
        dest[...] = 0.0
        np.multiply(coeff[:k], scale, out=dest[1 : k + 1, :n])
        if m == n:  # the top sine mode, as in nodal_values
            dest[:, -1] *= 2.0
        fftpack.dst(dest[1 : k + 1], type=3, axis=1, overwrite_x=True)  # sine evaluation along y
        fftpack.dct(dest, type=3, axis=0, overwrite_x=True)  # cosine evaluation along x

    _ddx(z.coeff, ux)
    _ddx(z.coeff.T, uy.T)
    return ux, uy


def sup_norm(z: ModalField) -> float:
    """Max |z| over the 4 n_modes cell centres (sup-norm estimate)."""
    return float(np.abs(nodal_values(z, 4 * z.grid.n_modes)).max())


# ---------------------------------------------------------------------------
# resampling, norms
# ---------------------------------------------------------------------------

def resample(z: ModalField, n_modes: int) -> ModalField:
    """Re-express z on a grid with n_modes per axis (same side).

    Growing the grid embeds the coefficients; shrinking truncates to
    the retained block (lossy for under-resolved fields), so
    resample(resample(z, m), n) is the Galerkin projector P_m z.
    """
    n = z.grid.n_modes
    new = GridSpec(n_modes, z.grid.side)
    c = np.zeros(new.shape)
    k = min(n, n_modes)
    c[:k, :k] = z.coeff[:k, :k]
    return ModalField(new, c)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) over two 2-D arrays by numpy's own loop, whose bits, unlike
    those of BLAS (np.vdot, np.linalg.norm, @), do not depend on the thread count."""
    return float(np.einsum("ij,ij->", a, b))


def weighted_sum(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum(w * a * b) over three 2-D arrays by numpy's einsum loop, as dot, with
    no temporary.  With w = eigenvalue_power(grid, p) it is the modal form
    <A^p a, b>; on a padded grid w is a third nodal factor."""
    return float(np.einsum("ij,ij,ij->", w, a, b))


def inner(a: ModalField, b: ModalField) -> float:
    """L2 inner product (modal dot product by orthonormality)."""
    check_same_grid(a, b)
    return dot(a.coeff, b.coeff)


def norm_Hs(z: ModalField, s: float) -> float:
    """|| A^s z ||_{L2} = sqrt(sum eigenvalue^{2s} coeff^2)."""
    return math.sqrt(weighted_sum(eigenvalue_power(z.grid, 2.0 * s), z.coeff, z.coeff))


def norm_pair(u: ModalField, v: ModalField, s: float) -> float:
    """Phase-space norm || (u, v) ||_s at smoothness index s.

    ||(u, v)||_s^2 = ||A^{(s+1)/2} u||^2 + ||A^{(s-1)/2} v||^2; s = 0 is
    the energy space, s = 2 the quasi-strong space, s = -1 the weak
    space used for the Galerkin gap.
    """
    check_same_grid(u, v)
    qu = weighted_sum(eigenvalue_power(u.grid, s + 1.0), u.coeff, u.coeff)
    return math.sqrt(qu + weighted_sum(eigenvalue_power(u.grid, s - 1.0), v.coeff, v.coeff))


def random_band_limited(grid: GridSpec, band: int, amplitude: float, seed: int) -> ModalField:
    """Gaussian coefficients on modes j, k <= band, scaled so the
    V-norm ||A^{1/2} u|| equals amplitude (zero field for amplitude 0)."""
    if not (1 <= band <= grid.n_modes):
        raise IndexError(f"band {band} outside 1..{grid.n_modes}")
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.shape)
    c[:band, :band] = rng.standard_normal((band, band))
    z = ModalField(grid, c)
    if amplitude == 0.0:
        return ModalField.zeros(grid)
    nv = norm_Hs(z, 0.5)
    return ModalField(grid, c * (amplitude / nv))


# ---------------------------------------------------------------------------
# typed JSON values (config leaves, file headers); .mfld snapshot files
# ---------------------------------------------------------------------------

_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


def json_value(val, kind: type, key: str):
    """val, the JSON value at the dotted key, as kind: an integer (not a
    bool) for int, a finite number for float (an integer is promoted, and
    refused beyond the float range), a string for str.  Anything else
    raises ConfigError naming key."""
    if kind is float and type(val) is int:
        val = float(val) if abs(val) <= sys.float_info.max else math.inf
    if type(val) is not kind or (kind is float and not math.isfinite(val)):
        raise ConfigError(f"expected {_EXPECTED[kind]}, got {val!r}", key=key)
    return val


def _check_finite_header(header: dict | list, prefix: str = "") -> None:
    """ValueError naming the first key (dotted into nested objects and
    lists, a list's index as its key) that holds a non-finite number:
    json.dumps would write NaN or Infinity, which is not JSON, and
    json.loads reads them back."""
    for key, val in header.items() if isinstance(header, dict) else enumerate(header):
        if isinstance(val, (dict, list)):
            _check_finite_header(val, f"{prefix}{key}.")
        elif isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"header key '{prefix}{key}' holds {val!r}")


def save_field(path, z: ModalField, time: float = 0.0, kind: str = "u") -> None:
    """Write a .mfld snapshot: one UTF-8 JSON header line holding the grid's
    n_modes and side, time and kind, then the (n_modes, n_modes)
    coefficients as row-major little-endian float64.  A non-finite time
    raises ValueError naming it, before the file is opened."""
    header = {"n_modes": z.grid.n_modes, "side": z.grid.side, "time": float(time),
              "kind": str(kind)}
    _check_finite_header(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(z.coeff, dtype="<f8").tobytes())


def load_field(path) -> tuple[ModalField, float, str]:
    """Read a .mfld snapshot; returns (field, time, kind).  The header must
    be a JSON object with no non-finite number anywhere, whose n_modes and
    side make a GridSpec, time is a finite number and kind a string (each
    read by json_value; other keys are ignored), and the block must fill
    the rest of the file exactly.  Any defect raises FileFormatError."""
    with open(path, "rb") as fh:
        head, body = fh.readline(), fh.read()  # what the file holds, not what a header claims
    try:
        header = json.loads(head.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("the header is not a JSON object")
        _check_finite_header(header)
        grid = GridSpec(json_value(header["n_modes"], int, "n_modes"),
                        json_value(header["side"], float, "side"))
        n = grid.n_modes
        if len(body) < 8 * n * n:
            raise FileFormatError(f"{path}: truncated block 'coeff'")
        if len(body) > 8 * n * n:
            raise FileFormatError(f"{path}: {len(body) - 8 * n * n} bytes after the last block")
        coeff = np.frombuffer(body, dtype="<f8").reshape(n, n).copy()
        return (ModalField(grid, coeff), json_value(header["time"], float, "time"),
                json_value(header["kind"], str, "kind"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: bad header ({exc!r})") from exc
