"""Transform layer: eigenbasis, fast-vs-naive transforms, norms, file IO."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from oracles import naive_modal, naive_nodal, sine_matrix

from sinech.errors import FileFormatError
from sinech.spectral import (
    GridSpec,
    ModalField,
    apply_power,
    eigenvalue,
    eigenvalues,
    field_integral,
    gradient_values,
    inner,
    lambda_max,
    load_field,
    modal_from_values,
    nodal_values,
    norm_Hs,
    norm_pair,
    padded_points,
    project,
    quadrature_weight,
    random_band_limited,
    resample,
    save_field,
    sup_norm,
)

PI = math.pi


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalue_values():
    g = GridSpec(8, PI)
    assert eigenvalue(g, 1, 1) == pytest.approx(2.0, rel=1e-14)       # 1 + 1
    assert eigenvalue(g, 2, 3) == pytest.approx(13.0, rel=1e-14)      # 4 + 9
    assert eigenvalue(GridSpec(8, 2 * PI), 1, 1) == pytest.approx(0.5, rel=1e-14)
    # table agrees with the scalar accessor
    lam = eigenvalues(g)
    assert lam.shape == (8, 8)
    assert lam[1, 2] == eigenvalue(g, 2, 3)


def test_lambda_max_values():
    assert lambda_max(GridSpec(4, PI)) == pytest.approx(32.0, rel=1e-14)
    assert lambda_max(GridSpec(1, PI)) == pytest.approx(2.0, rel=1e-14)
    assert lambda_max(GridSpec(8, 2 * PI)) == pytest.approx(32.0, rel=1e-14)


def test_mode_index_bounds():
    g = GridSpec(4, PI)
    with pytest.raises(IndexError):
        eigenvalue(g, 0, 1)
    with pytest.raises(IndexError):
        eigenvalue(g, 1, 5)


# ---------------------------------------------------------------------------
# transforms vs the dense-matrix oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,side", [(6, PI), (5, 2.5), (16, PI), (12, 1.0)])
def test_inverse_matches_naive(n, side):
    rng = np.random.default_rng(42)
    grid = GridSpec(n, side)
    z = ModalField(grid, rng.standard_normal((n, n)))
    fast = nodal_values(z)
    slow = naive_nodal(z.coeff, side, n, centred=True)
    assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()
    # and on a refined grid
    fast2 = nodal_values(z, 3 * n)
    slow2 = naive_nodal(z.coeff, side, 3 * n, centred=True)
    assert np.abs(fast2 - slow2).max() <= 1e-12 * np.abs(slow2).max()


@pytest.mark.parametrize("n,side", [(6, PI), (9, 2.5), (16, PI)])
def test_forward_matches_naive(n, side):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((n, n))
    fast = modal_from_values(vals, side)
    slow = naive_modal(vals, side, centred=True)
    assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()


def test_forward_of_basis_function():
    # samples of e_11 project to coeff_11 = 1, everything else ~ 0
    grid = GridSpec(8, PI)
    vals = nodal_values(ModalField.single_mode(grid, 1, 1))
    c = modal_from_values(vals, PI)
    assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
    c[0, 0] = 0.0
    assert np.abs(c).max() <= 1e-12
    # zero in, zero out
    assert np.abs(modal_from_values(np.zeros((8, 8)), PI)).max() == 0.0


def test_inverse_single_mode_closed_form():
    grid = GridSpec(8, PI)
    x = (np.arange(1, 9) - 0.5) * (PI / 8)  # the cell centres (p - 1/2) side/n
    vals = nodal_values(ModalField.single_mode(grid, 1, 1))
    exact = (2.0 / PI) * np.outer(np.sin(x), np.sin(x))
    assert np.abs(vals - exact).max() <= 1e-13


def test_inverse_linearity():
    grid = GridSpec(8, PI)
    rng = np.random.default_rng(11)
    z1 = ModalField(grid, rng.standard_normal((8, 8)))
    z2 = ModalField(grid, rng.standard_normal((8, 8)))
    lhs = nodal_values(z1 * 1.7 + z2 * (-0.3))
    rhs = 1.7 * nodal_values(z1) - 0.3 * nodal_values(z2)
    assert np.abs(lhs - rhs).max() <= 1e-12


_SIZES = st.integers(1, 40)
_SIDES = st.floats(0.1, 10.0)
_SEEDS = st.integers(0, 2**32 - 1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=_SIZES, side=_SIDES, seed=_SEEDS)
@example(n=16, side=PI, seed=7)
def test_roundtrip_and_idempotence(n, side, seed):
    # nodal -> modal -> nodal gives the values back, and modal -> nodal ->
    # modal the coefficients, on the grid's own points
    grid = GridSpec(n, side)
    w = np.random.default_rng(seed).standard_normal(grid.shape)
    coeff = modal_from_values(w, side)
    back = nodal_values(ModalField(grid, coeff))
    assert np.abs(back - w).max() <= 1e-12 * np.abs(w).max()
    again = modal_from_values(nodal_values(ModalField(grid, coeff)), side)
    assert np.abs(again - coeff).max() <= 1e-12 * np.abs(coeff).max()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=_SIZES, side=_SIDES, seed=_SEEDS, extra=st.integers(0, 40))
@example(n=8, side=PI, seed=5, extra=0)
@example(n=16, side=2.0, seed=5, extra=0)
@example(n=33, side=PI, seed=5, extra=0)
def test_parseval(n, side, seed, extra):
    # on any finer grid norm_Hs(z,0)^2 equals the midpoint sum exactly (z^2
    # has band 2n < 2m); on the field's own grid (extra = 0) the top mode
    # sums its square to m instead of m/2, so there it weighs 2 per axis
    z = ModalField(GridSpec(n, side), np.random.default_rng(seed).standard_normal((n, n)))
    m = n + extra
    quad = quadrature_weight(side, m) * float(np.sum(nodal_values(z, m) ** 2))
    w = np.ones(n)
    if extra == 0:
        w[-1] = 2.0
    n2 = float(np.sum(np.outer(w, w) * z.coeff**2))
    assert abs(n2 - quad) <= 1e-10 * n2


# ---------------------------------------------------------------------------
# operator powers, projection, resampling
# ---------------------------------------------------------------------------

def test_apply_power():
    grid = GridSpec(8, PI)
    rng = np.random.default_rng(1)
    z = ModalField(grid, rng.standard_normal((8, 8)))
    assert np.array_equal(apply_power(z, 0.0).coeff, z.coeff)
    m23 = apply_power(ModalField.single_mode(grid, 2, 3), -1.0)
    assert m23.coeff[1, 2] == pytest.approx(1.0 / 13.0, rel=1e-14)
    # group law on a seeded (s, t) sweep
    half = apply_power(apply_power(z, 0.5), -0.5)
    assert np.abs(half.coeff - z.coeff).max() <= 1e-12
    for s, t in [(-2.0, 2.0), (1.3, -0.4), (0.7, 0.7), (-1.1, -0.9)]:
        lhs = apply_power(apply_power(z, s), t)
        rhs = apply_power(z, s + t)
        assert norm_Hs(lhs - rhs, 0.0) <= 1e-12 * norm_Hs(rhs, 0.0)


def test_projector():
    grid = GridSpec(12, PI)
    rng = np.random.default_rng(2)
    z = ModalField(grid, rng.standard_normal((12, 12)))
    assert np.array_equal(project(z, 12).coeff, z.coeff)
    p6 = project(z, 6)
    assert np.array_equal(project(p6, 6).coeff, p6.coeff)
    # orthogonality and monotone truncation error
    tails = []
    for m in range(1, 13):
        pm = project(z, m)
        assert abs(inner(pm, z - pm)) <= 1e-12 * norm_Hs(z, 0.0) ** 2
        tails.append(norm_Hs(z - pm, 0.0))
    assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))
    with pytest.raises(IndexError):
        project(z, 0)
    with pytest.raises(IndexError):
        project(z, 13)


def test_resample_embed_truncate():
    grid = GridSpec(6, PI)
    rng = np.random.default_rng(9)
    z = ModalField(grid, rng.standard_normal((6, 6)))
    up = resample(z, 10)
    assert up.grid.n_modes == 10
    assert np.array_equal(up.coeff[:6, :6], z.coeff)
    assert np.abs(up.coeff[6:, :]).max() == 0.0
    back = resample(up, 6)
    assert np.array_equal(back.coeff, z.coeff)
    # embedding preserves every Sobolev norm
    for s in (-0.5, 0.0, 1.0):
        assert norm_Hs(up, s) == pytest.approx(norm_Hs(z, s), rel=1e-15)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norm_values():
    grid = GridSpec(8, PI)
    e11 = ModalField.single_mode(grid, 1, 1)
    zero = ModalField.zeros(grid)
    assert norm_Hs(e11, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert norm_Hs(e11, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert norm_pair(e11, zero, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # velocity slot carries A^{-1/2}: lambda^{-1/2} = 2^{-1/2}
    assert norm_pair(zero, e11, 0.0) == pytest.approx(2.0**-0.5, rel=1e-14)
    for s in (-1.0, 0.0, 2.0):
        assert norm_pair(zero, zero, s) == 0.0


def test_sup_norm_single_mode():
    # 25-point refinement of a 5-mode grid contains the center, where
    # e_11 attains its max 2/side
    g5 = GridSpec(5, PI)
    assert sup_norm(ModalField.single_mode(g5, 1, 1), refine=5) == pytest.approx(
        2.0 / PI, rel=1e-14
    )
    # default refinement gets within grid-sampling error of it
    g16 = GridSpec(16, PI)
    s = sup_norm(ModalField.single_mode(g16, 1, 1))
    assert s <= 2.0 / PI + 1e-14
    assert s == pytest.approx(2.0 / PI, rel=1e-3)


def test_field_integral():
    grid = GridSpec(8, PI)
    # int e_11 = 8 side / pi^2 = 8/pi at side pi; even modes vanish
    assert field_integral(ModalField.single_mode(grid, 1, 1)) == pytest.approx(
        8.0 / PI, rel=1e-14
    )
    assert field_integral(ModalField.single_mode(grid, 1, 2)) == 0.0
    assert field_integral(ModalField.single_mode(grid, 2, 2)) == 0.0
    # against the midpoint sum on a fine grid
    rng = np.random.default_rng(4)
    z = ModalField(grid, rng.standard_normal((8, 8)))
    fine = 4096
    vals = nodal_values(z, fine)
    approx = quadrature_weight(PI, fine) * float(np.sum(vals))
    assert field_integral(z) == pytest.approx(approx, abs=5e-3)


def test_gradient_values():
    grid = GridSpec(8, PI)
    z = ModalField.single_mode(grid, 2, 1, 0.7)
    m = 21
    gx, gy = gradient_values(z, m)
    x = (np.arange(1, m + 1) - 0.5) * (PI / m)
    ex = 0.7 * (2.0 / PI) * 2.0 * np.outer(np.cos(2 * x), np.sin(x))
    ey = 0.7 * (2.0 / PI) * np.outer(np.sin(2 * x), np.cos(x))
    assert np.abs(gx - ex).max() <= 1e-12
    assert np.abs(gy - ey).max() <= 1e-12
    # the midpoint sum of |grad|^2, a cosine polynomial of band 4 < 2m,
    # is the V-norm exactly
    w = quadrature_weight(PI, m)
    assert w * float(np.sum(gx**2 + gy**2)) == pytest.approx(
        norm_Hs(z, 0.5) ** 2, rel=1e-12
    )


@pytest.mark.parametrize("n,m", [(1, 1), (5, 5), (6, 13), (16, 35)])
def test_gradient_values_match_naive(n, m):
    # against the derivative of the dense sine matrix, also on the field's
    # own grid, where the top mode's cosine vanishes at every centre
    side = 2.5
    c = np.random.default_rng(n).standard_normal((n, n))
    gx, gy = gradient_values(ModalField(GridSpec(n, side), c), m)
    x = (np.arange(m)[:, None] + 0.5) * (side / m)
    freq = np.arange(1, n + 1)[None, :] * np.pi / side
    D = np.sqrt(2.0 / side) * freq * np.cos(freq * x)
    B = sine_matrix(n, m, side, centred=True)
    scale = np.abs(c).max() * freq.max()
    assert np.abs(gx - D @ c @ B.T).max() <= 1e-12 * scale
    assert np.abs(gy - B @ c @ D.T).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(1, 1), (5, 5), (6, 13), (16, 35), (33, 69)])
def test_out_arguments_match_default_bitwise(n, m):
    # the pooled work arrays start with stale contents: NaN must not leak
    grid = GridSpec(n, 2.5)
    z = ModalField(grid, np.random.default_rng(n).standard_normal((n, n)))
    buf = np.full((m, m), np.nan)
    assert nodal_values(z, m, out=buf) is buf
    assert np.array_equal(buf, nodal_values(z, m))
    values = nodal_values(z, m)
    expected = modal_from_values(values, grid.side)
    assert np.array_equal(modal_from_values(values, grid.side, overwrite=True), expected)
    with pytest.raises(ValueError):
        nodal_values(z, m, out=np.empty((m + 1, m + 1)))


def _full_nodal(z, m):
    # the unpruned inverse: scale and zero-pad (the DST-III weighs a top
    # mode by 1/2), then one 2-D DST-III over the whole grid
    n = z.grid.n_modes
    padded = np.zeros((m, m))
    padded[:n, :n] = z.coeff / (2.0 * z.grid.side)
    if m == n:
        padded[-1] *= 2.0
        padded[:, -1] *= 2.0
    return sfft.dstn(padded, type=3)


def _full_modal(values, side, n):
    # the unpruned forward: one 2-D DST-II over the whole grid, then
    # truncate (the top mode sums its square to m, not m/2)
    m = values.shape[0]
    out = sfft.dstn(values, type=2)
    out *= side / (2.0 * m * m)
    if n == m:
        out[-1] *= 0.5
        out[:, -1] *= 0.5
    return out[:n, :n]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 33, 64, 128])
@pytest.mark.parametrize("grid_size", ["n", "pad2", "pad3", "4n"])
def test_pruned_transforms_match_full_grid_dstn_bitwise(n, grid_size):
    m = {"n": n, "pad2": padded_points(n, 2), "pad3": padded_points(n, 3),
         "4n": 4 * n}[grid_size]
    side = 2.5
    z = ModalField(GridSpec(n, side), np.random.default_rng(n).standard_normal((n, n)))
    expected = _full_nodal(z, m)
    assert np.array_equal(nodal_values(z, m), expected)
    buf = np.full((m, m), np.nan)  # stale contents must not leak into the pruned passes
    assert np.array_equal(nodal_values(z, m, out=buf), expected)

    values = np.random.default_rng(m).standard_normal((m, m))
    kept = values.copy()
    expected = _full_modal(values, side, n)
    assert np.array_equal(modal_from_values(values, side, n_modes=n), expected)
    assert np.array_equal(values, kept)  # overwrite=False leaves its input untouched
    assert np.array_equal(modal_from_values(values, side, overwrite=True, n_modes=n), expected)
    with pytest.raises(ValueError):
        modal_from_values(kept, side, n_modes=m + 1)


def _full_ddx(coeff, side, m):
    # the unpruned d/dx: 4 x the cosine-in-x, sine-in-y coefficients of the
    # derivative on the whole grid (cosine j sits in row j; the cosine of
    # frequency m vanishes at every centre), a DST-III along axis 1 over
    # every row, then a DCT-III along axis 0
    n = coeff.shape[0]
    k = min(n, m - 1)
    padded = np.zeros((m, m))
    padded[1 : k + 1, :n] = coeff[:k] * (np.arange(1, k + 1) * (np.pi / (2.0 * side ** 2)))[:, None]
    if m == n:
        padded[:, -1] *= 2.0
    return sfft.dct(sfft.dst(padded, type=3, axis=1), type=3, axis=0)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 33, 64, 128])
@pytest.mark.parametrize("grid_size", ["n", "pad2", "pad3", "4n"])
def test_gradient_values_match_full_grid_scipy_fft_bitwise(n, grid_size):
    m = {"n": n, "pad2": padded_points(n, 2), "pad3": padded_points(n, 3),
         "4n": 4 * n}[grid_size]
    side = 2.5
    z = ModalField(GridSpec(n, side), np.random.default_rng(n).standard_normal((n, n)))
    gx, gy = gradient_values(z, m)
    assert np.array_equal(gx, _full_ddx(z.coeff, side, m))
    assert np.array_equal(gy, _full_ddx(z.coeff.T, side, m).T)


@pytest.mark.parametrize("n", [1, 8])
def test_default_calls_return_fresh_arrays(n):
    grid = GridSpec(n, PI)
    z = random_band_limited(grid, n, 1.0, seed=n)
    m = 2 * n + 1
    for call in (lambda: nodal_values(z, m), lambda: nodal_values(z),
                 lambda: gradient_values(z, m)[0], lambda: gradient_values(z, m)[1],
                 lambda: modal_from_values(nodal_values(z, m), PI)):
        first = call()
        kept = first.copy()
        second = call()
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)


def test_random_band_limited():
    grid = GridSpec(16, PI)
    z1 = random_band_limited(grid, 4, 1.5, seed=123)
    z2 = random_band_limited(grid, 4, 1.5, seed=123)
    assert np.array_equal(z1.coeff, z2.coeff)  # determinism is bitwise
    assert np.abs(z1.coeff[4:, :]).max() == 0.0
    assert np.abs(z1.coeff[:, 4:]).max() == 0.0
    assert norm_Hs(z1, 0.5) == pytest.approx(1.5, rel=1e-12)
    # band=1 spans only e_11; amplitude=0 is the zero field
    one = random_band_limited(grid, 1, 2.0, seed=0)
    mask = np.ones((16, 16), dtype=bool)
    mask[0, 0] = False
    assert np.abs(one.coeff[mask]).max() == 0.0
    assert np.abs(random_band_limited(grid, 4, 0.0, seed=0).coeff).max() == 0.0
    with pytest.raises(IndexError):
        random_band_limited(grid, 17, 1.0, seed=0)


# ---------------------------------------------------------------------------
# padded transform sizes
# ---------------------------------------------------------------------------

def _is_five_smooth(k: int) -> bool:
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


@pytest.mark.parametrize("factor", [2, 3])
def test_padded_points_minimal_smooth(factor):
    for n in range(1, 200):
        m = padded_points(n, factor)
        assert m > factor * n
        assert _is_five_smooth(m)
        # smallest admissible size
        assert not any(_is_five_smooth(c) for c in range(factor * n + 1, m))


def test_padded_points_values():
    assert padded_points(16, 2) == 36
    assert padded_points(32, 2) == 72
    assert padded_points(64, 2) == 135
    assert padded_points(128, 2) == 270
    assert padded_points(64, 3) == 200


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def test_field_file_roundtrip(tmp_path):
    grid = GridSpec(8, 2.5)
    rng = np.random.default_rng(77)
    z = ModalField(grid, rng.standard_normal((8, 8)))
    path = tmp_path / "snap.mfld"
    save_field(path, z, time=1.25, kind="ut")
    back, t, kind = load_field(path)
    assert np.array_equal(back.coeff, z.coeff)
    assert back.grid == grid
    assert t == 1.25
    assert kind == "ut"


def test_field_file_corruption(tmp_path):
    grid = GridSpec(8, PI)
    z = ModalField.zeros(grid)
    path = tmp_path / "snap.mfld"
    save_field(path, z)
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.mfld"
    trunc.write_bytes(blob[:-16])
    with pytest.raises(FileFormatError):
        load_field(trunc)
    bad = tmp_path / "bad.mfld"
    bad.write_bytes(b"\x00\x01not json\n" + blob)
    with pytest.raises(FileFormatError):
        load_field(bad)
    missing = tmp_path / "missing.mfld"
    missing.write_bytes(b'{"n_modes": 8, "side": 3.14}\n' + blob[100:])
    with pytest.raises(FileFormatError):
        load_field(missing)



def _edit_header(key, value):
    def edit(header):
        header[key] = value
        return header
    return edit


@pytest.mark.parametrize("edit", [
    _edit_header("n_modes", "abc"),
    _edit_header("side", -1.0),
    _edit_header("n_modes", 0),
    _edit_header("n_modes", -2),
    _edit_header("n_modes", None),
    _edit_header("n_modes", 10**6),     # would need an 8 TB block
    _edit_header("time", "later"),
    lambda header: [header],             # a JSON array, not an object
    lambda header: 8,                    # a bare number
    lambda header: "n_modes side time",  # a string holding the key names
], ids=["n_modes-abc", "side-negative", "n_modes-zero", "n_modes-negative",
        "n_modes-null", "n_modes-huge", "time-text", "array", "number", "string"])
def test_field_file_bad_header_is_file_format_error(tmp_path, edit):
    path = tmp_path / "snap.mfld"
    save_field(path, ModalField.zeros(GridSpec(2, PI)))
    head, _, rest = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + rest)
    with pytest.raises(FileFormatError):
        load_field(path)


# ---------------------------------------------------------------------------
# grid / field construction contracts
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, PI)
    with pytest.raises(ValueError):
        GridSpec(8, -1.0)
    with pytest.raises(ValueError):
        GridSpec(8, 0.0)


@pytest.mark.parametrize("n_modes, side, culprit", [
    (10**200, PI, "n_modes"),     # the default side: the largest eigenvalue's cube overflows
    (8, 1e-110, "side"),          # every eigenvalue's cube overflows
    (8, 1e110, "side"),           # the smallest eigenvalue's cube underflows to 0
], ids=["huge-n_modes", "tiny-side", "huge-side"])
def test_grid_out_of_the_float_range_names_its_cause(n_modes, side, culprit):
    with pytest.raises(ValueError, match=f"^{culprit} "):
        GridSpec(n_modes, side)


def test_modal_field_shape_check():
    grid = GridSpec(8, PI)
    with pytest.raises(ValueError):
        ModalField(grid, np.zeros((8, 7)))
    with pytest.raises(ValueError):
        # mismatched grids are refused by binary operations
        ModalField.zeros(grid) + ModalField.zeros(GridSpec(9, PI))


def test_sine_matrix_orthogonality():
    # discrete orthogonality underlying every oracle in this suite
    for m in (5, 8, 13):
        B = sine_matrix(m, m, PI)
        gram = (PI / (m + 1)) * (B.T @ B)
        assert np.abs(gram - np.eye(m)).max() <= 1e-12
