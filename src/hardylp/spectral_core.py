"""Periodic grids, spectral transforms, Fourier multipliers and L^q quadrature.

Fields are sampled on a periodic box [-L/2, L/2)^d and stored as float64
when their values are real, complex128 when they are complex.
Cell-centered sampling (offset h/2 per axis) is the default so the singular
weight |x|^-s is never evaluated at the origin.  Transforms are normalized
so that a constant field c has Fourier coefficient c at frequency zero, and
the frequency lattice is {k/L : -n/2 <= k < n/2} per axis.

A diagonal multiplier maps a real field through the real FFT on the half
spectrum and returns a real field; a complex field takes the complex FFT.
On a real field the odd symbols (gradient, Riesz transforms) are zero on
the Nyquist plane k_j = -n/2 of their own axis: that frequency is its own
mirror image on the lattice, so an odd symbol has no Hermitian value there
(the usual rule for odd spectral derivatives; Trefethen, Spectral Methods
in MATLAB, SIAM 2000, ch. 3).  Complex fields keep every symbol as given.
Generic multipliers (apply_multiplier) need not be Hermitian and always take
the complex path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "SampledField",
    "Spectrum",
    "make_grid",
    "make_field",
    "axis_coordinates",
    "coordinate_mesh",
    "radius_mesh",
    "frequency_axes",
    "frequency_mesh",
    "frequency_radius",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "fractional_laplacian",
    "sobolev_norm",
    "riesz_transform",
    "gradient",
    "gradient_magnitude",
    "lq_norm",
    "weighted_lq_norm",
    "power_weighted_lq_norm",
    "boundary_decay",
    "write_field",
    "read_field",
]

SUPPORTED_DIMENSIONS = (1, 2, 3, 4)

# Near-origin cells get exact-averaged singular weights: cells with
# |x_c| <= WEIGHT_REFINE_RADIUS * h are averaged on a midpoint subgrid of
# WEIGHT_REFINE_FACTOR points per axis.  Fixed, not adaptive; plain midpoint
# evaluation of |x|^-sq loses O(h) accuracy near the singularity, which is
# far outside the quadrature tolerances this package promises.
WEIGHT_REFINE_RADIUS = 6.0
WEIGHT_REFINE_FACTOR = 16

# Largest grid make_grid accepts: d = 3, n = 256 is 2**24 samples, 134 MB per
# real field and 268 MB per complex one.
MAX_GRID_SAMPLES = 2**24

FIELD_MAGIC = b"HLF2"
HLF1_MAGIC = b"HLF1"
FIELD_DTYPES = ("<f8", "<c16")  # HLF2 dtype byte: 0 real, 1 complex
FIELD_CENTERINGS = ("cell", "lattice")  # HLF2 centering byte


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: d dimensions, n points per axis, box side L."""

    d: int
    n: int
    L: float

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def nyquist(self) -> float:
        """Largest per-axis frequency magnitude, n/(2L)."""
        return self.n / (2.0 * self.L)


@dataclass(frozen=True)
class SampledField:
    """Samples of a function on a GridSpec, row-major.

    Real values are stored as float64 and complex ones as complex128; the
    values are copied and marked read-only.  Operators on a real field take
    the real FFT and follow the module's Nyquist rule for odd symbols.
    centering "cell" places samples at cell centers (offset h/2 from the
    lattice), "lattice" at the lattice points themselves.  Cell centering is
    the default; it keeps every sample away from the origin.
    """

    grid: GridSpec
    values: np.ndarray
    centering: str = "cell"

    def __post_init__(self):
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        vals = np.array(self.values, dtype=dtype)
        if vals.shape != self.grid.shape:
            if vals.size == self.grid.size:
                vals = vals.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"field has {vals.size} samples, grid needs {self.grid.size}"
                )
        if self.centering not in FIELD_CENTERINGS:
            raise ValueError(f"unknown centering {self.centering!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "SampledField":
        return replace(self, values=values)


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients on the frequency lattice, in FFT layout."""

    grid: GridSpec
    coefficients: np.ndarray
    centering: str = "cell"

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=np.complex128)
        if coef.shape != self.grid.shape:
            coef = coef.reshape(self.grid.shape)
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)


def make_grid(d: int, n: int, L: float) -> GridSpec:
    """Validated periodic grid; n must be a power of two >= 8, and the grid
    may hold at most MAX_GRID_SAMPLES samples."""
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"dimension must be one of {SUPPORTED_DIMENSIONS}, got {d}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"points per axis must be a power of two >= 8, got {n}")
    if n**d > MAX_GRID_SAMPLES:
        raise ValueError(
            f"grid n = {n} in d = {d} has {n**d} samples, more than the "
            f"{MAX_GRID_SAMPLES} (2**24) allowed"
        )
    if not (L > 0):
        raise ValueError(f"box length must be positive, got {L}")
    return GridSpec(d=d, n=n, L=float(L))


def make_field(grid: GridSpec, values, centering: str = "cell") -> SampledField:
    return SampledField(grid=grid, values=values, centering=centering)


def axis_coordinates(grid: GridSpec, centering: str = "cell") -> np.ndarray:
    """Per-axis sample coordinates in [-L/2, L/2)."""
    off = 0.5 if centering == "cell" else 0.0
    return -grid.L / 2.0 + (np.arange(grid.n) + off) * grid.h


def coordinate_mesh(grid: GridSpec, centering: str = "cell") -> tuple[np.ndarray, ...]:
    x = axis_coordinates(grid, centering)
    return tuple(np.meshgrid(*([x] * grid.d), indexing="ij"))


def _radius(axes: list[np.ndarray]) -> np.ndarray:
    """Euclidean length on the mesh of the per-axis arrays `axes`.

    The squares are summed over a sparse mesh in axis order, so the values
    are bitwise those of the same sum over the dense mesh.
    """
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.sqrt(sum(c**2 for c in mesh))


def radius_mesh(grid: GridSpec, centering: str = "cell") -> np.ndarray:
    """|x| measured from the box center, on the sample mesh."""
    return _radius([axis_coordinates(grid, centering)] * grid.d)


def _radial_classes(grid: GridSpec) -> np.ndarray:
    """k = |2x/h|^2 on the cell-centred mesh, as int64.

    Each coordinate 2x/h is an odd integer, so k is a sum of d odd squares:
    an integer with k = d (mod 8), and |x| = sqrt(k) h / 2.
    """
    odd = 2 * np.arange(grid.n) - grid.n + 1
    return sum(np.meshgrid(*([odd**2] * grid.d), indexing="ij", sparse=True))


def _radial_values(grid: GridSpec, profile) -> np.ndarray:
    """profile(|x|) on the cell-centred mesh, evaluated once per radial class.

    The table holds profile(sqrt(d + 8j) h / 2) for every class j up to the
    largest on the grid, attained or not.  k = d + 8j with 0 < d < 8, so
    k // 8 = (k - d) // 8 = j indexes it.  When the table would be longer than
    the grid (d = 1) the profile is evaluated per sample, at the same radii.
    """
    k = _radial_classes(grid)
    top = (grid.d * (grid.n - 1) ** 2) // 8
    if top + 1 > grid.size:
        return profile(np.sqrt(k) * (grid.h / 2.0))
    radii = np.sqrt(grid.d + 8 * np.arange(top + 1)) * (grid.h / 2.0)
    k //= 8
    return profile(radii)[k]


def frequency_axes(grid: GridSpec) -> np.ndarray:
    """Per-axis frequency lattice k/L in FFT order."""
    return np.fft.fftfreq(grid.n, d=grid.h)


def frequency_mesh(grid: GridSpec) -> tuple[np.ndarray, ...]:
    k = frequency_axes(grid)
    return tuple(np.meshgrid(*([k] * grid.d), indexing="ij"))


def frequency_radius(grid: GridSpec) -> np.ndarray:
    return _radius([frequency_axes(grid)] * grid.d)


def _phase_1d(grid: GridSpec, centering: str) -> np.ndarray:
    # compensates the sampling offset x0 so coefficients are true Fourier
    # coefficients: f(x) = sum_k fhat(k/L) exp(2 pi i k x / L)
    x0 = -grid.L / 2.0 + (grid.h / 2.0 if centering == "cell" else 0.0)
    k = np.fft.fftfreq(grid.n) * grid.n
    return np.exp(-2j * np.pi * k * x0 / grid.L)


def forward_transform(f: SampledField) -> Spectrum:
    """Fourier coefficients of f; a constant field c maps to c at frequency 0."""
    g = np.fft.fftn(f.values) / f.grid.size
    ph = _phase_1d(f.grid, f.centering)
    for ax in range(f.grid.d):
        g = g * _along_axis(f.grid, ax, ph)
    return Spectrum(grid=f.grid, coefficients=g, centering=f.centering)


def inverse_transform(spec: Spectrum) -> SampledField:
    g = spec.coefficients
    ph = _phase_1d(spec.grid, spec.centering).conj()
    for ax in range(spec.grid.d):
        g = g * _along_axis(spec.grid, ax, ph)
    values = np.fft.ifftn(g * spec.grid.size)
    return SampledField(grid=spec.grid, values=values, centering=spec.centering)


def _multiplier_values(grid: GridSpec, m) -> np.ndarray:
    """Evaluate a multiplier callable on the frequency mesh and validate it."""
    mesh = frequency_mesh(grid)
    vals = np.asarray(m(*mesh), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = np.unravel_index(np.argmax(bad), grid.shape)
        freq = tuple(float(mesh[ax][idx]) for ax in range(grid.d))
        raise ValueError(
            f"multiplier is not finite at lattice frequency {freq}; "
            "supply the value at singular frequencies explicitly"
        )
    return vals


def _apply_diag(values: np.ndarray, mults) -> np.ndarray:
    """The (len(mults), *shape) stack of ifftn(fftn(values) * m), m in mults.

    One forward FFT serves every multiplier; each m is a lattice array in
    FFT layout, or one that broadcasts to it.  Real values go through
    rfftn/irfftn: each m is cut to the half lattice, its first n//2 + 1
    entries along the last axis, and the stack is real.  That keeps only
    the Hermitian part of m, so a caller with real values passes symbols
    that are Hermitian on the lattice.  Complex values go through
    fftn/ifftn with m as given.  The per-axis phases of forward_transform
    and inverse_transform cancel for a diagonal multiplier, so they are
    left out.
    """
    if np.iscomplexobj(values):
        spec = np.fft.fftn(values)
        out = np.empty((len(mults),) + spec.shape, dtype=np.complex128)
        for i, m in enumerate(mults):
            np.fft.ifftn(spec * m, out=out[i])
        return out
    shape = values.shape
    axes = tuple(range(len(shape)))
    half = shape[-1] // 2 + 1
    spec = np.fft.rfftn(values)
    out = np.empty((len(mults),) + shape)
    for i, m in enumerate(mults):
        np.fft.irfftn(spec * m[..., :half], s=shape, axes=axes, out=out[i])
    return out


def apply_multiplier(f: SampledField, m) -> SampledField:
    """Apply the Fourier multiplier m(xi_1, ..., xi_d) to f.

    m is called with the d frequency mesh arrays and must return finite
    values on the whole lattice; in particular its value at frequency zero
    is the caller's responsibility.  m need not be Hermitian, so a real f
    goes through the complex transforms and the result is complex.
    """
    values = f.values.astype(np.complex128, copy=False)
    return f.with_values(_apply_diag(values, [_multiplier_values(f.grid, m)])[0])


@lru_cache(maxsize=4)
def _power_symbol(grid: GridSpec, s: float, real: bool) -> np.ndarray:
    """|2 pi xi|^s on the frequency lattice, zero at frequency zero; only the
    half lattice of rfftn when real.  Cached per (grid, s, real); the
    returned array is read-only."""
    k = frequency_axes(grid)
    half = k[: grid.n // 2 + 1] if real else k
    rad = _radius([k] * (grid.d - 1) + [half])
    mult = np.zeros(rad.shape)
    nz = rad > 0
    mult[nz] = (2.0 * np.pi * rad[nz]) ** s
    mult.setflags(write=False)
    return mult


def fractional_laplacian(f: SampledField, s: float) -> SampledField:
    """|D|^s f: multiply the spectrum by |2 pi xi|^s.

    For s > 0 the frequency-zero coefficient is set to zero; s = 0 is the
    identity; s < 0 requires a mean-zero input because |2 pi xi|^s is
    singular at the origin.
    """
    if s == 0:
        return f
    if s < 0:
        _require_mean_zero(f)
    mult = _power_symbol(f.grid, s, np.isrealobj(f.values))
    return f.with_values(_apply_diag(f.values, [mult])[0])


def _require_mean_zero(f: SampledField) -> None:
    mean = complex(np.mean(f.values))
    scale = max(1.0, float(np.max(np.abs(f.values), initial=0.0)))
    if abs(mean) > 1e-12 * scale:
        raise ValueError(
            "negative-order operator requires mean-zero input "
            f"(mean coefficient {mean:.3e})"
        )


def sobolev_norm(f: SampledField, s: float, q: float) -> float:
    """|| |D|^s f ||_q, equal to lq_norm(fractional_laplacian(f, s), q).

    At q = 2 Parseval gives it from one forward FFT F (unnormalised) of the
    N samples: sqrt(h^d / N * sum |F|^2 |2 pi xi|^(2s)).  On the half lattice
    of rfftn the planes k_last = 0 and k_last = n/2 are their own mirror
    images and count once; every other plane stands for itself and its
    mirror and counts twice.  s = 0 is the plain L^q norm, mean included;
    s < 0 requires mean-zero input, as fractional_laplacian does.
    """
    if q != 2 or s == 0:
        return lq_norm(fractional_laplacian(f, s), q)
    if s < 0:
        _require_mean_zero(f)
    grid = f.grid
    real = np.isrealobj(f.values)
    spec = np.fft.rfftn(f.values) if real else np.fft.fftn(f.values)
    power = (spec.real**2 + spec.imag**2) * _power_symbol(grid, 2.0 * s, real)
    total = power.sum()
    if real:
        total = 2.0 * total - power[..., 0].sum() - power[..., -1].sum()
    return float(np.sqrt(total * grid.h**grid.d / grid.size))


def _odd_frequencies(grid: GridSpec, real: bool) -> np.ndarray:
    """frequency_axes for an odd symbol: zero at the Nyquist entry -n/(2L)
    when the field is real (the module's Nyquist rule)."""
    k = frequency_axes(grid)
    if real:
        k[grid.n // 2] = 0.0
    return k


def _along_axis(grid: GridSpec, ax: int, k: np.ndarray) -> np.ndarray:
    """The per-axis array k laid along axis ax, to broadcast over the lattice."""
    shape = [1] * grid.d
    shape[ax] = grid.n
    return k.reshape(shape)


def riesz_transform(f: SampledField, j: int) -> SampledField:
    """Riesz transform along axis j (1-based): multiplier -i xi_j / |xi|."""
    grid = f.grid
    if not (1 <= j <= grid.d):
        raise ValueError(f"axis must be in 1..{grid.d}, got {j}")
    real = np.isrealobj(f.values)
    # -i xi_j / |xi| = -2 pi i xi_j |2 pi xi|^-1, zero at frequency zero
    inverse = _power_symbol(grid, -1.0, real)
    xi = _along_axis(grid, j - 1, _odd_frequencies(grid, real))
    xi = xi[..., : inverse.shape[-1]]
    return f.with_values(_apply_diag(f.values, [(-2j * np.pi) * xi * inverse])[0])


def gradient(f: SampledField) -> tuple[SampledField, ...]:
    """Spectral partial derivatives: component j has spectrum 2 pi i xi_j fhat."""
    comps = _apply_diag(f.values, _gradient_symbols(f))
    return tuple(f.with_values(g) for g in comps)


def _gradient_symbols(f: SampledField) -> list[np.ndarray]:
    # 2 pi i xi_j along axis j, shaped to broadcast over the lattice
    k = 2j * np.pi * _odd_frequencies(f.grid, np.isrealobj(f.values))
    return [_along_axis(f.grid, ax, k) for ax in range(f.grid.d)]


def gradient_magnitude(f: SampledField) -> np.ndarray:
    """Pointwise Euclidean length of the spectral gradient."""
    comps = _apply_diag(f.values, _gradient_symbols(f))
    return np.sqrt(sum(np.abs(g) ** 2 for g in comps))


def lq_norm(f: SampledField, q: float) -> float:
    """(sum |f|^q h^d)^(1/q); the max of |f| when q is infinite."""
    return _lq(f.values, f.grid.h**f.grid.d, q)


def _lq(values: np.ndarray, cell_volume: float, q: float) -> float:
    """lq_norm of bare samples on cells of the given volume."""
    if q == np.inf:
        return float(np.max(np.abs(values), initial=0.0))
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    absq = np.abs(values) ** q
    return float((absq.sum() * cell_volume) ** (1.0 / q))


@lru_cache(maxsize=8)
def _refined_weight(grid: GridSpec, centering: str, exponent: float) -> np.ndarray:
    """|x|^exponent on the mesh, cell-averaged near the origin when singular.

    Cached per (grid, centering, exponent); the returned array is read-only.
    """
    w = _build_weight(grid, centering, exponent)
    w.setflags(write=False)
    return w


def _build_weight(grid: GridSpec, centering: str, exponent: float) -> np.ndarray:
    rad = radius_mesh(grid, centering)
    if np.any(rad == 0.0):
        if exponent < 0:
            raise ValueError(
                "a sample sits at |x| = 0; use a cell-centered grid for "
                "singular weights"
            )
        w = np.zeros(grid.shape)
        nz = rad > 0
        w[nz] = rad[nz] ** exponent
        if exponent == 0:
            w[~nz] = 1.0
        return w
    w = rad**exponent
    if exponent >= 0:
        return w
    h = grid.h
    # A near cell's average is invariant under the 2^d d! sign flips and axis
    # permutations of the cell-centred lattice and scales exactly as h^exponent:
    # average once per class of sorted odd integers 2|x_c|/h, on the unit cell.
    near = np.argwhere(rad <= WEIGHT_REFINE_RADIUS * h)
    x = axis_coordinates(grid, centering) / h
    keys = np.sort(np.rint(2.0 * np.abs(x[near])).astype(np.int64), axis=1)
    classes, inverse = np.unique(keys, axis=0, return_inverse=True)
    off = (np.arange(WEIGHT_REFINE_FACTOR) + 0.5) / WEIGHT_REFINE_FACTOR - 0.5
    sub = np.meshgrid(*([off] * grid.d), indexing="ij")
    sq = (sum((u / 2.0 + o) ** 2 for u, o in zip(c, sub)) for c in classes)
    means = np.array([np.mean(np.sqrt(r) ** exponent) for r in sq])
    w[tuple(near.T)] = means[inverse.ravel()] * h**exponent
    return w


def power_weighted_lq_norm(f: SampledField, weight_power: float, q: float) -> float:
    """(sum |f|^q |x|^(weight_power * q) h^d)^(1/q), x from the box center.

    Negative weight powers use exact cell-averaged weights near the origin;
    nonnegative powers are smooth there and use plain midpoint values.
    """
    if q == np.inf:
        rad = radius_mesh(f.grid, f.centering)
        return float(np.max(np.abs(f.values) * rad**weight_power, initial=0.0))
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    w = _refined_weight(f.grid, f.centering, weight_power * q)
    absq = np.abs(f.values) ** q
    return float(((absq * w).sum() * f.grid.h**f.grid.d) ** (1.0 / q))


def weighted_lq_norm(f: SampledField, s: float, q: float) -> float:
    """L^q norm of f / |x|^s by midpoint quadrature, s >= 0."""
    if s < 0:
        raise ValueError(f"weight order must satisfy s >= 0, got {s}")
    return power_weighted_lq_norm(f, -s, q)


def boundary_decay(f: SampledField) -> float:
    """Largest |f| sample on the outermost cell layer of the box."""
    n = f.grid.n
    mags = np.abs(f.values)
    worst = 0.0
    for ax in range(f.grid.d):
        first = np.take(mags, 0, axis=ax)
        last = np.take(mags, n - 1, axis=ax)
        worst = max(worst, float(first.max()), float(last.max()))
    return worst


def write_field(path, f: SampledField) -> None:
    """Serialize a field as HLF2: magic 'HLF2', u64 d, u64 n, f64 L, u8
    dtype (0 real, 1 complex), u8 centering (0 cell, 1 lattice), then the
    samples in row-major order: f64 values for a real field, interleaved
    (re, im) f64 pairs for a complex one.  Little-endian throughout."""
    dtype = int(np.iscomplexobj(f.values))
    centering = FIELD_CENTERINGS.index(f.centering)
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<QQdBB", f.grid.d, f.grid.n, f.grid.L, dtype, centering))
        fh.write(np.ascontiguousarray(f.values, dtype=FIELD_DTYPES[dtype]).tobytes())


def read_field(path) -> SampledField:
    """Read an HLF2 field file, or an HLF1 one: the same header without the
    dtype and centering bytes, complex samples, cell centering."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic not in (FIELD_MAGIC, HLF1_MAGIC):
            raise ValueError(f"not a field file: bad magic {magic!r}")
        layout = "<QQdBB" if magic == FIELD_MAGIC else "<QQd"
        header = fh.read(struct.calcsize(layout))
        if len(header) != struct.calcsize(layout):
            raise ValueError("truncated field file header")
        d, n, L, *codes = struct.unpack(layout, header)
        dtype, centering = codes or (1, 0)
        if dtype >= len(FIELD_DTYPES):
            raise ValueError(f"unknown field dtype code {dtype}")
        if centering >= len(FIELD_CENTERINGS):
            raise ValueError(f"unknown field centering code {centering}")
        grid = make_grid(int(d), int(n), float(L))
        raw = fh.read()
    itemsize = np.dtype(FIELD_DTYPES[dtype]).itemsize
    if len(raw) != grid.size * itemsize:
        raise ValueError(
            f"field file holds {len(raw) / itemsize:g} samples, expected {grid.size}"
        )
    values = np.frombuffer(raw, dtype=FIELD_DTYPES[dtype])
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(f"field file holds {bad} non-finite samples (NaN or Inf)")
    return SampledField(
        grid=grid, values=values.reshape(grid.shape), centering=FIELD_CENTERINGS[centering]
    )
