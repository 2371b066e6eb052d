"""Periodic grids, spectral transforms, Fourier multipliers and L^q quadrature.

Fields are sampled on a periodic box [-L/2, L/2)^d and stored as float64
when their values are real, complex128 when they are complex.
Cell-centered sampling (offset h/2 per axis) is the default so the singular
weight |x|^-s is never evaluated at the origin.  Transforms are normalized
so that a constant field c has Fourier coefficient c at frequency zero, and
the frequency lattice is {k/L : -n/2 <= k < n/2} per axis.  A grid holds
at most MAX_GRID_SAMPLES = 2**24 samples (n = 256 in 3-D).  Fields are
stored in HLF2 files (HLF1 files, without the dtype and centering bytes,
still read).

A diagonal multiplier maps a real field through the real FFT on the half
spectrum and returns a real field; a complex field takes the complex FFT.
On a real field the odd symbols (gradient, Riesz transforms) are zero on
the Nyquist plane k_j = -n/2 of their own axis: that frequency is its own
mirror image on the lattice, so an odd symbol has no Hermitian value there
(the usual rule for odd spectral derivatives; Trefethen, Spectral Methods
in MATLAB, SIAM 2000, ch. 3).  Complex fields keep every symbol as given.
Generic multipliers (apply_multiplier) need not be Hermitian and always take
the complex path.  Every diagonal multiplier takes one forward FFT, shared by
all of its symbols, and one inverse per symbol.  The Sobolev norm at q = 2 is
Parseval's sum over one forward FFT, with no inverse (_parseval_energy), as
is the classical check's ||grad f||_2^2; the Riesz transforms' symbols read
the cached |2 pi xi|^-1 table.  The gradient's symbol 2 pi i xi_j depends on
xi_j alone, so each partial derivative takes one 1-D transform pair along its
own axis, with no d-D transform, made slab by slab of lines (GRADIENT_SLABS)
so that only part of its spectrum exists at once; on lines of n <=
GRADIENT_MATRIX_N, as a product with the pair's n x n derivative matrix, the
pair applied to the unit vectors (cached, 32 KB at n = 64), in BLAS calls
of at most GRADIENT_BLOCK multiply-adds (the leading axis copies each block
of columns first), which OpenBLAS keeps on the calling thread, so the output
does not depend on its thread count.  gradient_magnitude sums the squares in
place, one component at a time.

The d-D transforms make no field-size temporaries.  The forward transform
hands numpy one output array (out=), which every stage writes into.  The
inverse runs as irfftn does, ifft along each leading axis and then irfft
along the last, but in place in its input.  A half spectrum that vanishes
outside the box |k_i| <= K is inverted pruned to that box (FFT pruning;
Markel, IEEE Trans. Audio Electroacoust. 19 (1971)): along each leading axis
only the lines that cross the box are transformed, and irfft zero-pads the
K + 1 columns of the last axis itself.  Fallback rule: a box with 4K > n is
inverted whole, since widening it costs more than the skipped lines save.
Both paths are bitwise equal to np.fft.irfftn; dyadic levels below the top
and the band-limited corpus fields take the pruned one.  A band-limited
field keeps its half spectrum on its box (SampledField.box): every
multiplier of it is then a product on that box and one pruned inverse, with
no forward transform, and a product that vanishes on the box, as a band
field's top dyadic level does, is the zero piece with no inverse.  Parseval
on a box counts its last plane k_last = K twice, as it is not the Nyquist
plane.  |D|^s of a box field carries its product box, so the Riesz potential
of it is pruned too; new samples (with_values, SampledField.mapped of an
uneven field, make_field, read_field) carry no box.

Radial profiles are evaluated once per radial class of the cell-centred grid
(_radial_values).  A field even in every coordinate, as a radial one on the
cell-centred grid is, needs only its octant x_i > 0 (SampledField.octant),
which _even_octant finds in a real, cell-centred field bitwise equal to its
flip along every axis, comparing one face pair first, and which
SampledField.mapped maps by a pointwise map or v - mean: each grid sum is 2^d
times the octant's, its spectrum is, up to a phase, the DCT-II of the octant,
one n/2-point rfft per axis (_even_transform), its gradient a product with the
folded derivative matrix, every radial multiplier one DCT pair, and the
q = 2 Sobolev norm the forward DCT alone (_even_parseval).  At finite
q, lq_norm, the weighted norms, sobolev_norm and the level pass read an even
field's octant, and fractional_laplacian maps it to the octant of |D|^s f; a
field built from its octant (SampledField.from_octant) reflects it onto the
grid only if its values are read.  So is the singular weight |x|^p, whose
table is its octant alone (_refined_weight), reflected onto each of a
cell-centred field's 2^d blocks in its weighted sum.

An L^q sum raises |f|, and multiplies it by its weight, in place in one
array.  Every pointwise power is _raise's: products for p in {2, 3, 4}, the
cube POWER_CHUNK samples at a time through one scratch buffer, np.power
otherwise; a finite-q sum scales |f| by its maximum only where max^q would
leave 2^(+-POWER_SAFE_LOG2) (_power_scale).  Every |x|^p table comes from
_radius_power, with one rule at the origin: 0^p is 0 for p > 0 and 1 for
p = 0, and a negative p is refused when a sample sits at |x| = 0, as on a
lattice-centred grid.  The singular weight |x|^p, p < 0, is refused at
p <= -d, where it is not integrable.  Each cell within WEIGHT_REFINE_RADIUS h
of the origin takes the mean of |x|^p on a midpoint sub-mesh of
WEIGHT_REFINE_FACTOR^d points, which is not the exact cell average: it reads
low in the corner cells, where the singularity sits on a vertex (see
WEIGHT_REFINE_RADIUS, and ROADMAP.md direction 10 for exact averages).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

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

# Near-origin cells get averaged singular weights: cells with
# |x_c| <= WEIGHT_REFINE_RADIUS * h take the mean of |x|^p on a midpoint
# sub-mesh of WEIGHT_REFINE_FACTOR points per axis.  Fixed, not adaptive;
# plain midpoint evaluation of |x|^-sq loses O(h) accuracy near the
# singularity, far outside the quadrature tolerances this package promises.
# The sub-mesh mean is not the exact cell average either: in the corner
# cells, where the singularity sits on a vertex, it reads low, by 2.2% at
# d = 3, p = -2 and by 69% at p = -2.9.  ROADMAP.md direction 10 plans exact
# averages by Lasserre's face rule.
WEIGHT_REFINE_RADIUS = 6.0
WEIGHT_REFINE_FACTOR = 16

# The gradient takes lines of n <= GRADIENT_MATRIX_N as products with its
# derivative matrix, each BLAS call of at most GRADIENT_BLOCK multiply-adds,
# which OpenBLAS keeps on the calling thread, whatever its thread count; it
# takes longer lines in GRADIENT_SLABS slabs, a quarter spectrum at a time.
GRADIENT_MATRIX_N = 64
GRADIENT_BLOCK = 2**18
GRADIENT_SLABS = 4
GRADIENT_SLAB_SAMPLES = 2**15  # gradient_magnitude's slabs along axis 0

# _raise's cube chunk; _power_scale's bound, far inside the float range for 2^24 x^p
POWER_CHUNK, POWER_SAFE_LOG2 = 2**14, 600.0

# Largest grid make_grid accepts: d = 3, n = 256 is 2**24 samples, 134 MB per
# real field and 268 MB per complex one.
MAX_GRID_SAMPLES = 2**24

# make_grid keeps the box's scales L^p and h^p (p = 2 max(d, 2)) within
# 10^(+-BOX_SCALE_DECADES), well inside the normal float range, for the
# constants and sums the checks multiply them by.
BOX_SCALE_DECADES = 240

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

    A real field may carry box = (K, spectrum): its exact unnormalised rfftn
    half spectrum on _half_box(n, d, K), 4K <= n, zero outside that box.  The
    forward transforms of _apply_diag and _parseval_energy then read the box,
    and each product's inverse is pruned to it.  The caller vouches that the
    box is the samples' spectrum; with_values, and so every field made from
    new samples, drops it.  Copied and read-only, like the values.

    octant is the block x_i > 0 of a field even in every coordinate, and None
    for any other field: found on first read by _even_octant, or given to
    from_octant, whose field reflects it onto the grid only when its values
    are read (_reflected).
    """

    grid: GridSpec
    values: np.ndarray
    centering: str = "cell"
    box: tuple[int, np.ndarray] | None = field(default=None, repr=False, compare=False)

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
        if self.box is not None:
            K, spec = self.box
            spec = np.array(spec, dtype=np.complex128)
            shape = tuple(i.size for i in _half_box(self.grid.n, self.grid.d, K))
            if dtype != np.float64 or _pruned(self.grid.n, K) is None or spec.shape != shape:
                raise ValueError(f"a box spectrum of K = {K} needs a real field, "
                                 f"4K <= n and shape {shape}, got {spec.shape}")
            spec.setflags(write=False)
            object.__setattr__(self, "box", (K, spec))

    @classmethod
    def from_octant(cls, grid: GridSpec, octant) -> "SampledField":
        """The cell-centred field even in every coordinate whose block x_i > 0
        is octant, a real array of shape (n/2,)*d, taken without a copy and
        marked read-only."""
        octant = np.asarray(octant)
        if not np.isrealobj(octant) or octant.shape != (grid.n // 2,) * grid.d:
            raise ValueError(f"an octant needs real values of shape {(grid.n // 2,) * grid.d}, "
                             f"got {octant.dtype} {octant.shape}")
        octant = octant.astype(np.float64, copy=False)
        octant.setflags(write=False)
        f = object.__new__(cls)
        vars(f).update(grid=grid, centering="cell", box=None, octant=octant)
        return f

    @cached_property
    def octant(self) -> np.ndarray | None:
        return _even_octant(self)

    def __getattr__(self, name):  # the values of a field built from its octant
        if name != "values" or "octant" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = _reflected(self.octant)
        values.setflags(write=False)
        vars(self)["values"] = values
        return values

    def with_values(self, values) -> "SampledField":
        return replace(self, values=values, box=None)

    def mapped(self, fn) -> "SampledField":
        """The field with samples fn(values), fn a map that takes an even
        field's octant to its image's, as a pointwise one or v - mean(v) does:
        of the octant when the field is even."""
        if self.octant is None:
            return self.with_values(fn(self.values))
        return SampledField.from_octant(self.grid, fn(self.octant))


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
    """Validated periodic grid; n must be a power of two >= 8, the grid may
    hold at most MAX_GRID_SAMPLES samples, and L must lie in the range
    _box_length_range(d)."""
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"dimension must be one of {SUPPORTED_DIMENSIONS}, got {d}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"points per axis must be a power of two >= 8, got {n}")
    if n**d > MAX_GRID_SAMPLES:
        raise ValueError(
            f"grid n = {n} in d = {d} has {n**d} samples, more than the "
            f"{MAX_GRID_SAMPLES} (2**24) allowed"
        )
    if not (0 < L < np.inf):
        raise ValueError(f"box length must be positive and finite, got {L}")
    lo, hi = _box_length_range(d)
    if not (lo <= L <= hi):
        raise ValueError(
            f"box length must lie in [{lo:.6g}, {hi:.6g}] in d = {d}, got {L}"
        )
    return GridSpec(d=d, n=n, L=float(L))


def _box_length_range(d: int) -> tuple[float, float]:
    """The box lengths make_grid accepts in d dimensions: with p = 2 max(d, 2),
    L^p at most 10^BOX_SCALE_DECADES, and h^p at least its reciprocal on the
    finest grid (n^d = MAX_GRID_SAMPLES).  Every power of a length or a
    frequency that the checks take has an exponent below 2d in magnitude
    (the Hölder step's N^(2s(q-1)), s < d/q, is the largest), so on every grid
    they, the cell volume h^d and the squares neither underflow nor overflow."""
    decades = BOX_SCALE_DECADES / (2 * max(d, 2))
    finest = 2 ** ((MAX_GRID_SAMPLES.bit_length() - 1) // d)
    return finest * 10.0**-decades, 10.0**decades


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


def _radial_classes(grid: GridSpec, octant: bool = False) -> np.ndarray:
    """k = |2x/h|^2 on the cell-centred mesh, or on its octant x_i > 0, as
    int64.

    Each coordinate 2x/h is an odd integer, so k is a sum of d odd squares:
    an integer with k = d (mod 8), and |x| = sqrt(k) h / 2.
    """
    odd = 2 * np.arange(grid.n) - grid.n + 1
    odd = odd[grid.n // 2 :] if octant else odd
    return sum(np.meshgrid(*([odd**2] * grid.d), indexing="ij", sparse=True))


def _radial_values(grid: GridSpec, profile, octant: bool = False) -> np.ndarray:
    """profile(|x|) on the cell-centred mesh, evaluated once per radial class;
    only its block on the octant x_i > 0 when octant, bitwise.

    The table holds profile(sqrt(d + 8j) h / 2) for every class j up to the
    largest on the grid, attained or not.  k = d + 8j with 0 < d < 8, so
    k // 8 = (k - d) // 8 = j indexes it.  When the table would be longer than
    the grid (d = 1) the profile is evaluated per sample, at the same radii.
    """
    k = _radial_classes(grid, octant)
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


@lru_cache(maxsize=4)
def _frequency_classes(grid: GridSpec, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """(index, radii): the distinct values radii of frequency_radius (on the
    half lattice of rfftn when real), and where each lattice point finds its
    own, as int32 (a grid holds at most 2**24 samples); a radial symbol is
    then the gather table[index].  Cached, read-only."""
    k = frequency_axes(grid)
    rad = _radius([k] * (grid.d - 1) + [k[: grid.n // 2 + 1] if real else k])
    radii, index = np.unique(rad, return_inverse=True)
    index = index.reshape(rad.shape).astype(np.int32)
    for a in (index, radii):
        a.setflags(write=False)
    return index, radii


def _phase_1d(grid: GridSpec, centering: str) -> np.ndarray:
    # compensates the sampling offset x0 so coefficients are true Fourier
    # coefficients: f(x) = sum_k fhat(k/L) exp(2 pi i k x / L)
    x0 = -grid.L / 2.0 + (grid.h / 2.0 if centering == "cell" else 0.0)
    k = np.fft.fftfreq(grid.n) * grid.n
    return np.exp(-2j * np.pi * k * x0 / grid.L)


def forward_transform(f: SampledField) -> Spectrum:
    """Fourier coefficients of f; a constant field c maps to c at frequency 0."""
    g = np.fft.fftn(f.values, out=np.empty(f.grid.shape, np.complex128))
    g /= f.grid.size
    ph = _phase_1d(f.grid, f.centering)
    for ax in range(f.grid.d):
        g *= _along_axis(f.grid, ax, ph)
    return Spectrum(grid=f.grid, coefficients=g, centering=f.centering)


def inverse_transform(spec: Spectrum) -> SampledField:
    ph = _phase_1d(spec.grid, spec.centering).conj()
    g = spec.coefficients * _along_axis(spec.grid, 0, ph)
    for ax in range(1, spec.grid.d):
        g *= _along_axis(spec.grid, ax, ph)
    g *= spec.grid.size
    values = np.fft.ifftn(g, out=g)
    return SampledField(grid=spec.grid, values=values, centering=spec.centering)


def _forward(values: np.ndarray) -> np.ndarray:
    """rfftn of real values, fftn of complex ones, bitwise: numpy writes
    every stage into the one output array it is handed."""
    shape = values.shape
    if np.iscomplexobj(values):
        return np.fft.fftn(values, out=np.empty(shape, np.complex128))
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    return np.fft.rfftn(values, out=np.empty(half, np.complex128))


def _pruned(n: int, K: int) -> int | None:
    """K when the box |k_i| <= K is narrow enough to invert pruned (4K <= n),
    else None: the box is inverted as the whole half spectrum."""
    return K if 4 * K <= n else None


def _box_indices(n: int, K: int) -> np.ndarray:
    """The FFT indices of |k| <= K on one axis, ascending: [0..K] and
    [n-K..n-1]."""
    return np.r_[0 : K + 1, n - K : n]


def _half_box(n: int, d: int, K: int) -> tuple[np.ndarray, ...]:
    """Per-axis indices of the box |k_i| <= K in the rfftn half spectrum of
    the (n,)*d grid: _box_indices on each leading axis and 0..K on the last."""
    return (_box_indices(n, K),) * (d - 1) + (np.arange(K + 1),)


def _inverse_real(half: np.ndarray, n: int, K: int | None = None) -> np.ndarray:
    """np.fft.irfftn(spectrum, s=(n,)*d), bitwise; half serves as the work
    buffer and is overwritten.

    half is the whole rfftn half spectrum when K is None, and otherwise the
    spectrum on the box _half_box(n, d, K), zero outside it.  ifft runs in
    place along each leading axis in turn; before each, a pruned box is
    widened along that axis to whole lines of n, zeros between its two index
    runs, so only the lines that cross the box are transformed.  irfft then
    zero-pads the K + 1 columns of the last axis.
    """
    for ax in range(half.ndim - 1):
        if K is not None:
            shape = half.shape[:ax] + (n,) + half.shape[ax + 1 :]
            lines = np.zeros(shape, np.complex128)
            lead = (slice(None),) * ax
            lines[lead + (slice(0, K + 1),)] = half[lead + (slice(0, K + 1),)]
            lines[lead + (slice(n - K, n),)] = half[lead + (slice(K + 1, None),)]
            half = lines
        np.fft.ifft(half, axis=ax, out=half)
    return np.fft.irfft(half, n, axis=-1)


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


def _apply_diag(values: np.ndarray, mults, box=None):
    """ifftn(fftn(values) * m) for each m in mults, in order: a generator
    that takes the forward FFT once and makes each piece when it is taken.

    Each m is a lattice array in FFT layout, or one that broadcasts to it.
    Real values go through rfftn/irfftn: each m is cut to the half lattice,
    its first n//2 + 1 entries along the last axis, and the pieces are real.
    That keeps only the Hermitian part of m, so a caller with real values
    passes symbols that are Hermitian on the lattice.  For real values an m
    may also be a pair (K, values of m on _half_box(n, d, K)) from
    _radial_symbol, for a symbol that vanishes outside that box; its piece
    takes the pruned inverse.  Real values that carry a box spectrum (the
    SampledField's box) take no forward FFT: each product is taken on the box,
    cut to a pair's smaller box (_box_product), and its inverse is pruned; a
    product that vanishes on the box is the zero piece, with no inverse.
    Complex values go through fftn/ifftn with m as given.  The per-axis
    phases of forward_transform and inverse_transform cancel for a diagonal
    multiplier, so they are left out.  Each piece's product buffer is freed
    before the next piece is made.
    """
    n = values.shape[0]
    if box is not None:
        for m in mults:
            piece, K = _box_product(n, box, m)
            yield _inverse_real(piece, n, K) if piece.any() else np.zeros(values.shape)
        return
    spec = _forward(values)
    if np.iscomplexobj(values):
        for m in mults:
            piece = spec * m
            yield np.fft.ifftn(piece, out=piece)
            del piece
        return
    half = spec.shape[-1]
    for m in mults:
        K, m = m if isinstance(m, tuple) else (None, m[..., :half])
        box = spec if K is None else spec[np.ix_(*_half_box(n, values.ndim, K))]
        yield _inverse_real(np.multiply(box, m), n, K)


def _box_of(a: np.ndarray, lines: int, K: int) -> np.ndarray:
    """The entries of a on the box |k_i| <= K, in _half_box layout: a is laid
    on the rfftn half lattice of lines of n (lines = n), or on a box of J >= K,
    whose leading axes are lines of 2J + 1 in the same layout (lines = 2J + 1);
    an axis of length 1, along which a broadcasts, is kept."""
    index = _half_box(lines, a.ndim, K)
    return a[np.ix_(*(i if size > 1 else [0] for i, size in zip(index, a.shape)))]


def _box_product(n: int, box, m) -> tuple[np.ndarray, int]:
    """(the product of the box spectrum (K, spec) and the symbol m on the box
    of k, k): k = K for a lattice array m, and k = min(K, J) for a pair
    (J, values on the box of J) from _radial_symbol, as both vanish outside
    their own box."""
    K, spec = box
    J, m = m if isinstance(m, tuple) else (None, m)
    k = K if J is None else min(K, J)
    m = _box_of(m, n if J is None else 2 * J + 1, k)
    return np.multiply(spec if k == K else _box_of(spec, 2 * K + 1, k), m), k


def _radial_symbol(grid: GridSpec, table: np.ndarray, real: bool):
    """The symbol with value table[j] on radial class j of _frequency_classes,
    as _apply_diag takes it.  For real fields whose table vanishes beyond the
    radius K/L, with 4K <= n, it is the pair (K, its values on the box
    _half_box(n, d, K)), which holds the ball |k| <= K; otherwise its values
    on the whole lattice (the rfftn half when real)."""
    index, radii = _frequency_classes(grid, real)
    if real:
        support = np.flatnonzero(table)
        top = radii[support[-1]] * grid.L if support.size else 0.0
        K = _pruned(grid.n, int(top + 1e-6))  # |k_i| <= |k| = top, past rounding
        if K is not None:
            return K, table[index[np.ix_(*_half_box(grid.n, grid.d, K))]]
    return table[index]


def apply_multiplier(f: SampledField, m) -> SampledField:
    """Apply the Fourier multiplier m(xi_1, ..., xi_d) to f.

    m is called with the d frequency mesh arrays and must return finite
    values on the whole lattice; in particular its value at frequency zero
    is the caller's responsibility.  m need not be Hermitian, so a real f
    goes through the complex transforms and the result is complex.
    """
    values = f.values.astype(np.complex128, copy=False)
    return f.with_values(next(_apply_diag(values, [_multiplier_values(f.grid, m)])))


@lru_cache(maxsize=4)
def _power_symbol(grid: GridSpec, s: float, real: bool, octant=False) -> np.ndarray:
    """|2 pi xi|^s on the frequency lattice, zero at frequency zero; only the
    half lattice of rfftn when real, and only the block k_i < n/2 of every
    axis (that of _even_transform) when octant.  Cached per (grid, s, real,
    octant); the returned array is read-only."""
    k = frequency_axes(grid)
    half = k[: grid.n // 2 + 1] if real else k
    axes = [k[: grid.n // 2]] * grid.d if octant else [k] * (grid.d - 1) + [half]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    mult = sum(c**2 for c in mesh)  # _radius, with the root taken in place
    np.sqrt(mult, out=mult)
    mult *= 2.0 * np.pi
    mult.flat[0] = 1.0  # frequency zero, the only zero radius: no 0**s at s < 0
    mult **= s
    mult.flat[0] = 0.0
    mult.setflags(write=False)
    return mult


def fractional_laplacian(f: SampledField, s: float, scale: float = 1.0) -> SampledField:
    """scale |D|^s f: multiply the spectrum by |2 pi xi|^s.

    For s > 0 the frequency-zero coefficient is set to zero; s = 0 is the
    identity; s < 0 requires a mean-zero input because |2 pi xi|^s is
    singular at the origin.  scale multiplies the new samples in place, after
    the inverse.  An even field gives the field built from the octant of the
    result, by one DCT pair; a field that carries a box spectrum gives one
    that carries the product on that box.
    """
    if s == 0:
        return f if scale == 1.0 else f.mapped(lambda v: v * scale)
    grid, octant = f.grid, f.octant
    if s < 0:
        _require_mean_zero(f)
    scaled = lambda a: a if scale == 1.0 else np.multiply(a, scale, out=a)
    if octant is not None:
        return SampledField.from_octant(grid, scaled(_even_lift(grid, octant, s)))
    mult = _power_symbol(grid, s, np.isrealobj(f.values))
    if f.box is None:
        return f.with_values(scaled(next(_apply_diag(f.values, [mult]))))
    product, K = _box_product(grid.n, f.box, mult)
    values = scaled(_inverse_real(product.copy(), grid.n, K))
    return replace(f, values=values, box=(K, scaled(product)))


def _require_mean_zero(f: SampledField) -> None:
    """Refuse a field whose mean is not zero, to 1e-12 of max(1, max |f|),
    read on an even field's octant, which has the field's mean and maximum."""
    values = f.values if f.octant is None else f.octant
    mean = complex(np.mean(values))
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    if abs(mean) > 1e-12 * scale:
        raise ValueError(
            "negative-order operator requires mean-zero input "
            f"(mean coefficient {mean:.3e})"
        )


def sobolev_norm(f: SampledField, s: float, q: float) -> float:
    """|| |D|^s f ||_q, equal to lq_norm(fractional_laplacian(f, s), q).

    At q = 2 it is the root of _parseval_energy with |2 pi xi|^(2s), of
    _even_parseval on an even field.  s = 0 is the plain L^q norm, mean
    included; s < 0 requires mean-zero input, as fractional_laplacian does.
    """
    if q != 2 or s == 0:
        return lq_norm(fractional_laplacian(f, s), q)
    if s < 0:
        _require_mean_zero(f)
    if f.octant is not None:
        return _even_parseval(f.grid, f.octant, s)
    mult = _power_symbol(f.grid, 2.0 * s, np.isrealobj(f.values))
    return float(np.sqrt(_parseval_energy(f, [mult])))


def _parseval_energy(f: SampledField, symbols):
    """h^d / N * sum |F|^2 m, F the unnormalised forward FFT of the N samples
    and m the sum of symbols: by Parseval, ||g||_2^2 for g with spectrum
    F sqrt(m).  A real f takes rfftn, each symbol cut to the half lattice as
    in _apply_diag; there the planes k_last = 0 and n/2 are their own mirror
    images and count once, and every other plane counts twice.  A real f that
    carries a box spectrum takes it for F, each symbol cut to the box; its
    last axis ends at K < n/2, so only the plane k_last = 0 counts once.  The
    power is made in the spectrum's real part, the symbols' sum in its imag
    part."""
    grid = f.grid
    real = np.isrealobj(f.values)
    if f.box is None:
        spec = _forward(f.values)
        half = grid.n // 2 + 1 if real else None
        cut = lambda m: m[..., :half]
    else:
        K, spec = f.box
        spec = spec.copy()
        cut = lambda m: _box_of(m, grid.n, K)
    power = np.square(spec.real, out=spec.real)
    power += np.square(spec.imag, out=spec.imag)
    weight = None  # the sum of symbols, left to right, in the spent imag part
    for m in symbols:
        m = cut(m)
        weight = m if weight is None else np.add(weight, m, out=spec.imag)
    power *= weight
    total = power.sum()
    if real:
        total = 2.0 * total - power[..., 0].sum()
        if f.box is None:
            total -= power[..., -1].sum()
    return total * grid.h**grid.d / grid.size


def _even_transform(octant: np.ndarray) -> np.ndarray:
    """rfftn of the cell-centred field that is even in every coordinate and
    equals octant on x_i > 0, on its block k_i < n/2, with the phase
    (-1)^k_i exp(i pi k_i / n) of each axis divided out; the rows k_i = n/2
    of that field's spectrum are zero.  The result is real: 2 C per axis,
    C the DCT-II of the octant's N = n/2 samples, each made from one N-point
    rfft of the samples reordered even-then-reversed-odd (Makhoul, IEEE
    Trans. ASSP 28 (1980))."""
    spec = octant
    for ax in range(octant.ndim):
        g = np.moveaxis(spec, ax, -1)
        N = g.shape[-1]
        v = np.concatenate((g[..., 0::2], g[..., :0:-2]), axis=-1)
        half = np.fft.rfft(v, axis=-1)
        half *= 2.0 * np.exp(-0.5j * np.pi * np.arange(N // 2 + 1) / N)
        v[..., : N // 2 + 1] = half.real  # C(k) = Re, C(N - k) = -Im
        np.negative(half.imag[..., N // 2 - 1 : 0 : -1], out=v[..., N // 2 + 1 :])
        del half
        spec = np.moveaxis(v, -1, ax)
    return spec


def _even_inverse(spec: np.ndarray) -> np.ndarray:
    """The octant whose _even_transform is spec: per axis a DCT-III, one N-point
    irfft of (C(k) - i C(N-k)) e^(i pi k/2N) / 2, C(N) = 0, read back interleaved.
    Each axis's input is freed once copied, and its irfft input once inverted."""
    for ax in range(spec.ndim):
        c = np.moveaxis(spec, ax, -1)
        N, shape = c.shape[-1], c.shape
        w = np.zeros(shape[:-1] + (N // 2 + 1,), np.complex128)
        w.real = c[..., : N // 2 + 1]
        np.negative(c[..., : N // 2 - 1 : -1], out=w.imag[..., 1:])
        c = spec = v = None
        w *= 0.5 * np.exp(0.5j * np.pi * np.arange(N // 2 + 1) / N)
        v = np.fft.irfft(w, N, axis=-1)
        w = None
        v = np.stack((v[..., : N // 2], v[..., : N // 2 - 1 : -1]), axis=-1)
        spec = np.moveaxis(v.reshape(shape), -1, ax)
    return spec


def _even_octant(f: SampledField) -> np.ndarray | None:
    """f's block on x_i > 0 when f is real, cell-centred and bitwise equal to
    its flip along every axis, else None: one face pair first, O(n^(d-1)).
    SampledField.octant's first read."""
    bits = f.values.view(np.int64)
    if np.iscomplexobj(f.values) or f.centering != "cell" or (bits[0] != bits[-1]).any():
        return None
    for ax in range(f.grid.d):
        low, bits = np.split(bits, 2, axis=ax)
        if not np.array_equal(np.flip(low, ax), bits):
            return None
    return f.values[(slice(f.grid.n // 2, None),) * f.grid.d]


def _reflected(octant: np.ndarray) -> np.ndarray:
    """The samples of the cell-centred field even in every coordinate whose
    block x_i > 0 is octant: its mirror image prepended along every axis."""
    return np.pad(octant, (octant.shape[0], 0), "symmetric")


def _samples(f: SampledField, q: float) -> tuple[np.ndarray, float]:
    """The samples f's L^q sums read and their cell volume: at finite q an
    even field's octant, on cells of 2^d h^d; else all of f, on cells of h^d."""
    octant = f.octant if q != np.inf else None
    if octant is None:
        return f.values, f.grid.h**f.grid.d
    return octant, 2.0**f.grid.d * f.grid.h**f.grid.d


def _even_lift(grid: GridSpec, octant: np.ndarray, s: float) -> np.ndarray:
    """The octant of |D|^s f, f the even field with this octant, by one DCT
    pair; its frequency zero is dropped, as fractional_laplacian's is."""
    spec = _even_transform(octant)
    spec *= _power_symbol(grid, s, True, octant=True)
    return _even_inverse(spec)


def _even_parseval(grid: GridSpec, octant: np.ndarray, s: float) -> float:
    """|| |D|^s f ||_2 of the even field f with this octant, by Parseval on
    _even_transform: planes k_i = 0 count once, others twice (mirrored)."""
    power = _even_transform(octant)
    np.square(power, out=power)
    power *= _power_symbol(grid, 2.0 * s, True, octant=True)
    for ax in range(grid.d):
        power[(slice(None),) * ax + (0,)] *= 0.5
    return float(np.sqrt(power.sum() * (2.0**grid.d * grid.h**grid.d) / grid.size))


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
    shape[ax] = k.size
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
    symbol = (-2j * np.pi) * xi * inverse
    return f.with_values(next(_apply_diag(f.values, [symbol], f.box)))


def gradient(f: SampledField) -> tuple[SampledField, ...]:
    """Spectral partial derivatives: component j has spectrum 2 pi i xi_j fhat,
    taken by one 1-D transform pair along its own axis j."""
    grid, real = f.grid, np.isrealobj(f.values)
    return tuple(f.with_values(_component(grid, f.values, j, real)) for j in range(grid.d))


def _gradient_symbols(f: SampledField) -> list[np.ndarray]:
    # 2 pi i xi_j along axis j, shaped to broadcast over the lattice
    k = 2j * np.pi * _odd_frequencies(f.grid, np.isrealobj(f.values))
    return [_along_axis(f.grid, ax, k) for ax in range(f.grid.d)]


def _component(grid: GridSpec, values: np.ndarray, ax: int, real: bool) -> np.ndarray:
    """Component ax of the gradient on values, whole lines along ax of the grid:
    its 1-D transform pair along ax, on short lines the pair's matrix."""
    if grid.n <= GRADIENT_MATRIX_N:
        return _matrix_partial(values, ax, _derivative_matrix(grid, real))
    k = 2j * np.pi * _odd_frequencies(grid, real)[: grid.n // 2 + 1 if real else None]
    return _partial(values, ax, _along_axis(grid, ax, k))


@lru_cache(maxsize=4)
def _derivative_matrix(grid: GridSpec, real: bool, folded: bool = False) -> np.ndarray:
    """The n x n matrix D whose product with a line is the gradient's pair on
    it: _partial on the n unit vectors, so the same symbol, Nyquist rule and
    dtype; folded, the real D on x > 0 of an even line, whose sample h - 1 - m
    mirrors h + m: D[h:, h:] + D[h:, h-1::-1], h = n/2.  Cached, read-only."""
    if folded:
        D, h = _derivative_matrix(grid, True), grid.n // 2
        D = D[h:, h:] + D[h:, h - 1 :: -1]
    else:
        k = 2j * np.pi * _odd_frequencies(grid, real)[: grid.n // 2 + 1 if real else None]
        eye = np.eye(grid.n, dtype=np.float64 if real else np.complex128)
        D = _partial(eye, 0, k[:, None])
    D.setflags(write=False)
    return D


def _matrix_partial(values: np.ndarray, ax: int, D: np.ndarray) -> np.ndarray:
    """D times every line along axis ax, in BLAS calls of at most
    GRADIENT_BLOCK multiply-adds: blocks of rows (lines, n) D^T on the last
    axis, else D (n, columns) on blocks of columns, copied first on axis 0."""
    n, trail = values.shape[ax], int(np.prod(values.shape[ax + 1 :]))
    block = max(1, GRADIENT_BLOCK // (n * n))
    out, cols = np.empty_like(values), min(block, trail)
    if trail == 1:
        v, o = (a.reshape(-1, min(block, values.size // n), n) for a in (values, out))
        np.matmul(v, D.T, out=o)
    elif ax == 0:  # each (n, cols) block copied, not read as n rows trail apart
        v, o = values.reshape(n, trail), out.reshape(n, trail)
        for j in range(0, trail, cols):
            np.matmul(D, v[:, j : j + cols].copy(), out=o[:, j : j + cols])
    else:
        v, o = (a.reshape(-1, n, trail // cols, cols).swapaxes(1, 2) for a in (values, out))
        np.matmul(D, v, out=o)
    return out


def _partial(values: np.ndarray, ax: int, k: np.ndarray) -> np.ndarray:
    """The 1-D transform pair along axis ax with symbol k, in GRADIENT_SLABS
    (or fewer) slabs of lines cut along another axis and written into one output array.
    Each line is transformed as in the whole-array call, bitwise, and no
    spectrum larger than a slab's exists."""
    real = np.isrealobj(values)
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    n, cut = values.shape[ax], 1 if ax == 0 else 0  # the slabs cut axis 1 or 0
    out = np.empty_like(values)
    lines = values.shape[cut] if values.ndim > 1 else 1
    step = max(1, lines // GRADIENT_SLABS)
    slabs = [(slice(None),) * cut + (slice(i, i + step),) for i in range(0, lines, step)]
    for slab in slabs if values.ndim > 1 else [()]:
        spec = fwd(values[slab], axis=ax)
        inv(np.multiply(spec, k, out=spec), n, axis=ax, out=out[slab])
    return out


def gradient_magnitude(f: SampledField) -> np.ndarray:
    """Pointwise length of the spectral gradient: component 0 squared in place,
    then per slab of about GRADIENT_SLAB_SAMPLES on axis 0 the others and the root."""
    grid, real = f.grid, np.isrealobj(f.values)
    square = lambda g: np.square(g, out=g) if real else np.square(np.abs(g))
    out = square(_component(grid, f.values, 0, real))
    rows = max(1, GRADIENT_SLAB_SAMPLES // grid.n ** (grid.d - 1))
    for i in range(0, grid.n, rows):
        total = out[i : i + rows]
        for ax in range(1, grid.d):
            total += square(_component(grid, f.values[i : i + rows], ax, real))
        np.sqrt(total, out=total)
    return out


def _even_gradient_magnitude(grid: GridSpec, octant: np.ndarray) -> np.ndarray:
    """gradient_magnitude of the real even field with this octant, on it: its
    lines along x_j > 0 are the folded _derivative_matrix's products."""
    A, octant = _derivative_matrix(grid, True, True), np.ascontiguousarray(octant)
    total = 0.0
    for ax in range(grid.d):  # one octant array beside the component
        g = _matrix_partial(octant, ax, A)
        total += np.square(g, out=g)
    return np.sqrt(total, out=total)


def lq_norm(f: SampledField, q: float) -> float:
    """(sum |f|^q h^d)^(1/q); the max of |f| when q is infinite."""
    return _lq(*_samples(f, q), q)


def _lq(values: np.ndarray, cell_volume: float, q: float, weight=None) -> float:
    """lq_norm of bare samples on cells of the given volume; with a weight
    table at finite q, of the samples times weight^(1/q)."""
    if q == np.inf:
        return float(np.max(np.abs(values), initial=0.0))
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    return _power_sum(np.abs(values), cell_volume, q, weight)


def _power_sum(absq: np.ndarray, cell_volume: float, q: float, weight=None) -> float:
    """_lq at finite q of the nonnegative samples absq, raised and weighted in
    place: by a table of its shape, or an octant one reflected onto each block."""
    top = _power_scale(float(np.max(absq, initial=0.0)), q)
    if top != 1.0:  # top^q would under- or overflow: scale by the maximum first
        absq /= top
    _raise(absq, q)
    if weight is not None:  # per axis, the (block of absq, view of weight) pairs
        m = weight.shape[0]
        sides = ([(slice(None), slice(None))] if weight.shape == absq.shape
                 else [(slice(m), slice(None, None, -1)), (slice(m, None), slice(None))])
        for axes in itertools.product(sides, repeat=absq.ndim):
            block = absq[tuple(b for b, _ in axes)]
            np.multiply(block, weight[tuple(v for _, v in axes)], out=block)
    return top * float((absq.sum() * cell_volume) ** (1.0 / q))


def _power_scale(top: float, p: float) -> float:
    """top if top^p leaves 2^(+-POWER_SAFE_LOG2), else 1: what x <= top is scaled by."""
    return top if top and abs(p * np.log2(top)) > POWER_SAFE_LOG2 else 1.0


def _raise(a: np.ndarray, p: float) -> np.ndarray:
    """a^p in place for a >= 0: products for p in {2, 3, 4}, a cube POWER_CHUNK
    samples at a time through one scratch buffer (ValueError on a view that no
    flat view covers), np.power for any other p."""
    if p not in (2, 3, 4):
        return np.power(a, p, out=a)
    if p != 3:  # x^4 as (x^2)^2
        return np.multiply(a, a, out=a) if p == 2 else _raise(_raise(a, 2), 2)
    flat = a.reshape(-1, order="A", copy=False)
    scratch = np.empty(min(flat.size, POWER_CHUNK), a.dtype)
    for chunk in np.split(flat, range(POWER_CHUNK, flat.size, POWER_CHUNK)):
        chunk *= np.multiply(chunk, chunk, out=scratch[: chunk.size])
    return a


def _radius_power(grid: GridSpec, centering: str, p: float, x=None) -> np.ndarray:
    """|x|^p on the mesh of the axis coordinates x, by default the grid's own,
    with one rule at the origin: 0^p is 0 for p > 0 and 1 for p = 0, and a
    negative p is refused when a sample sits at |x| = 0."""
    x = axis_coordinates(grid, centering) if x is None else x
    rad = _radius([x] * grid.d)
    if p < 0 and not rad.all():
        raise ValueError(
            "a sample sits at |x| = 0; use a cell-centered grid for singular weights"
        )
    return np.power(rad, p, out=rad)


@lru_cache(maxsize=8)
def _refined_weight(grid: GridSpec, exponent: float):
    """|x|^exponent on the octant x_i > 0 of the cell-centred mesh, which fixes
    the whole even table, cell-averaged near the origin when singular; refused
    at exponent <= -d, not integrable there.  Cached per (grid, exponent),
    read-only."""
    if exponent <= -grid.d:
        raise ValueError(f"the weight |x|^{exponent:g} is not integrable at the origin "
                         f"in d = {grid.d}: need s q < d")
    w = _build_weight(grid, exponent, axis_coordinates(grid)[grid.n // 2 :])
    w.setflags(write=False)
    return w


def _build_weight(grid: GridSpec, exponent: float, x: np.ndarray):
    """The table of _refined_weight on the mesh of the axis coordinates x."""
    w = _radius_power(grid, "cell", exponent, x)
    if exponent >= 0:
        return w
    h = grid.h
    # |x| >= |x_i| on every axis, so every near cell (|x| <= WEIGHT_REFINE_RADIUS
    # * h) lies in the sub-cube of the axis coordinates with |x_i| <= that
    cube = np.flatnonzero(np.abs(x) <= WEIGHT_REFINE_RADIUS * h)
    cube_rad = _radius([x[cube]] * grid.d)
    # A near cell's average is invariant under the 2^d d! sign flips and axis
    # permutations of the cell-centred lattice and scales exactly as h^exponent:
    # average once per class of sorted odd integers 2|x_c|/h, on the unit cell.
    near = cube[np.argwhere(cube_rad <= WEIGHT_REFINE_RADIUS * h)]
    keys = np.sort(np.rint(2.0 * np.abs(x[near] / h)).astype(np.int64), axis=1)
    classes, inverse = np.unique(keys, axis=0, return_inverse=True)
    off = (np.arange(WEIGHT_REFINE_FACTOR) + 0.5) / WEIGHT_REFINE_FACTOR - 0.5
    sub = np.meshgrid(*([off] * grid.d), indexing="ij", sparse=True)
    means = np.empty(len(classes))
    for j, c in enumerate(classes):  # summed in axis order, as _radius does
        r = sum((u / 2.0 + o) ** 2 for u, o in zip(c, sub))
        np.sqrt(r, out=r)
        r **= exponent
        means[j] = np.mean(r)
    w[tuple(near.T)] = means[inverse.ravel()] * np.power(h, exponent)
    return w


def power_weighted_lq_norm(f: SampledField, weight_power: float, q: float) -> float:
    """(sum |f|^q |x|^(weight_power * q) h^d)^(1/q), x from the box center.

    Negative weight powers use averaged weights near the origin, each the
    mean of |x|^p on a WEIGHT_REFINE_FACTOR^d midpoint sub-mesh of its cell,
    which reads low in the corner cells (see WEIGHT_REFINE_RADIUS; ROADMAP.md
    direction 10); nonnegative powers are smooth there and use plain
    midpoint values.
    """
    if weight_power == 0:  # |x|^0 = 1, with no weight table to build or keep
        return lq_norm(f, q)
    if q == np.inf:
        w = _radius_power(f.grid, f.centering, weight_power)
        return float(np.max(np.abs(f.values) * w, initial=0.0))
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    p = weight_power * q  # _radius_power refuses p < 0 on a lattice: a sample is at 0
    w = (_refined_weight(f.grid, p) if f.centering == "cell"
         else _radius_power(f.grid, "lattice", p))
    return _lq(*_samples(f, q), q, w)


def weighted_lq_norm(f: SampledField, s: float, q: float) -> float:
    """L^q norm of f / |x|^s by midpoint quadrature, s >= 0."""
    if s < 0:
        raise ValueError(f"weight order must satisfy s >= 0, got {s}")
    return power_weighted_lq_norm(f, -s, q)


def boundary_decay(f: SampledField) -> float:
    """Largest |f| on the box's outermost cell layer, read off its 2d faces."""
    faces = (np.moveaxis(f.values, ax, 0)[[0, -1]] for ax in range(f.grid.d))
    return max(float(np.abs(face).max()) for face in faces)


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
