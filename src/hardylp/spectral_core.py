"""Periodic grids, spectral transforms, Fourier multipliers and L^q quadrature.

The whole toolkit works on complex fields sampled on a periodic box
[-L/2, L/2)^d.  Cell-centered sampling (offset h/2 per axis) is the default
so the singular weight |x|^-s is never evaluated at the origin.  Transforms
are normalized so that a constant field c has Fourier coefficient c at
frequency zero, and the frequency lattice is {k/L : -n/2 <= k < n/2} per
axis.
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

FIELD_MAGIC = b"HLF1"


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
    """Complex samples of a function on a GridSpec, row-major.

    centering "cell" places samples at cell centers (offset h/2 from the
    lattice), "lattice" at the lattice points themselves.  Cell centering is
    the default; it keeps every sample away from the origin.
    """

    grid: GridSpec
    values: np.ndarray
    centering: str = "cell"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            if vals.size == self.grid.size:
                vals = vals.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"field has {vals.size} samples, grid needs {self.grid.size}"
                )
        if self.centering not in ("cell", "lattice"):
            raise ValueError(f"unknown centering {self.centering!r}")
        vals = vals.copy()
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
    """Validated periodic grid; n must be a power of two >= 8."""
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"dimension must be one of {SUPPORTED_DIMENSIONS}, got {d}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"points per axis must be a power of two >= 8, got {n}")
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


def radius_mesh(grid: GridSpec, centering: str = "cell") -> np.ndarray:
    """|x| measured from the box center, on the sample mesh."""
    mesh = coordinate_mesh(grid, centering)
    return np.sqrt(sum(c**2 for c in mesh))


def frequency_axes(grid: GridSpec) -> np.ndarray:
    """Per-axis frequency lattice k/L in FFT order."""
    return np.fft.fftfreq(grid.n, d=grid.h)


def frequency_mesh(grid: GridSpec) -> tuple[np.ndarray, ...]:
    k = frequency_axes(grid)
    return tuple(np.meshgrid(*([k] * grid.d), indexing="ij"))


def frequency_radius(grid: GridSpec) -> np.ndarray:
    mesh = frequency_mesh(grid)
    return np.sqrt(sum(k**2 for k in mesh))


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
        shape = [1] * f.grid.d
        shape[ax] = f.grid.n
        g = g * ph.reshape(shape)
    return Spectrum(grid=f.grid, coefficients=g, centering=f.centering)


def inverse_transform(spec: Spectrum) -> SampledField:
    g = spec.coefficients
    ph = _phase_1d(spec.grid, spec.centering).conj()
    for ax in range(spec.grid.d):
        shape = [1] * spec.grid.d
        shape[ax] = spec.grid.n
        g = g * ph.reshape(shape)
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
    FFT layout, or one that broadcasts to it.  The per-axis phases of
    forward_transform and inverse_transform cancel for a diagonal
    multiplier, so they are left out.
    """
    spec = np.fft.fftn(values)
    out = np.empty((len(mults),) + spec.shape, dtype=np.complex128)
    for i, m in enumerate(mults):
        np.fft.ifftn(spec * m, out=out[i])
    return out


def apply_multiplier(f: SampledField, m) -> SampledField:
    """Apply the Fourier multiplier m(xi_1, ..., xi_d) to f.

    m is called with the d frequency mesh arrays and must return finite
    values on the whole lattice; in particular its value at frequency zero
    is the caller's responsibility.
    """
    return f.with_values(_apply_diag(f.values, [_multiplier_values(f.grid, m)])[0])


def fractional_laplacian(f: SampledField, s: float) -> SampledField:
    """|D|^s f: multiply the spectrum by |2 pi xi|^s.

    For s > 0 the frequency-zero coefficient is set to zero; s = 0 is the
    identity; s < 0 requires a mean-zero input because |2 pi xi|^s is
    singular at the origin.
    """
    if s == 0:
        return f
    grid = f.grid
    rad = frequency_radius(grid)
    if s < 0:
        mean = complex(np.mean(f.values))
        scale = max(1.0, float(np.max(np.abs(f.values), initial=0.0)))
        if abs(mean) > 1e-12 * scale:
            raise ValueError(
                "negative-order operator requires mean-zero input "
                f"(mean coefficient {mean:.3e})"
            )
    mult = np.zeros(grid.shape)
    nz = rad > 0
    mult[nz] = (2.0 * np.pi * rad[nz]) ** s
    return f.with_values(_apply_diag(f.values, [mult])[0])


def riesz_transform(f: SampledField, j: int) -> SampledField:
    """Riesz transform along axis j (1-based): multiplier -i xi_j / |xi|."""
    grid = f.grid
    if not (1 <= j <= grid.d):
        raise ValueError(f"axis must be in 1..{grid.d}, got {j}")
    mesh = frequency_mesh(grid)
    rad = frequency_radius(grid)
    mult = np.zeros(grid.shape, dtype=np.complex128)
    nz = rad > 0
    mult[nz] = -1j * mesh[j - 1][nz] / rad[nz]
    return f.with_values(_apply_diag(f.values, [mult])[0])


def gradient(f: SampledField) -> tuple[SampledField, ...]:
    """Spectral partial derivatives: component j has spectrum 2 pi i xi_j fhat."""
    comps = _apply_diag(f.values, _gradient_symbols(f.grid))
    return tuple(f.with_values(g) for g in comps)


def _gradient_symbols(grid: GridSpec) -> list[np.ndarray]:
    # 2 pi i xi_j along axis j, shaped to broadcast over the lattice
    k = 2j * np.pi * frequency_axes(grid)
    shapes = [[grid.n if b == ax else 1 for b in range(grid.d)] for ax in range(grid.d)]
    return [k.reshape(shape) for shape in shapes]


def gradient_magnitude(f: SampledField) -> np.ndarray:
    """Pointwise Euclidean length of the spectral gradient."""
    comps = _apply_diag(f.values, _gradient_symbols(f.grid))
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
    """Serialize a field: magic 'HLF1', u64 d, u64 n, f64 L, then interleaved
    (re, im) f64 samples in row-major order.  Little-endian throughout."""
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<QQd", f.grid.d, f.grid.n, f.grid.L))
        flat = np.ascontiguousarray(f.values, dtype=np.complex128).ravel()
        inter = np.empty(2 * flat.size)
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        fh.write(inter.astype("<f8").tobytes())


def read_field(path) -> SampledField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FIELD_MAGIC:
            raise ValueError(f"not a field file: bad magic {magic!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError("truncated field file header")
        d, n, L = struct.unpack("<QQd", header)
        grid = make_grid(int(d), int(n), float(L))
        raw = np.frombuffer(fh.read(), dtype="<f8")
        if raw.size != 2 * grid.size:
            raise ValueError(
                f"field file holds {raw.size // 2} samples, expected {grid.size}"
            )
        values = raw[0::2] + 1j * raw[1::2]
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(f"field file holds {bad} non-finite samples (NaN or Inf)")
    return SampledField(grid=grid, values=values.reshape(grid.shape))
