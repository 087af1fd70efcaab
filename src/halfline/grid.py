"""Midpoint grids on [0, L] and the discrete Hilbert space built on them.

The half line is truncated to [0, L] and discretized at cell midpoints
x_j = (j + 1/2) h with h = L / N.  All inner products are midpoint
quadrature, so every operation here is exact linear algebra on C^N and
the continuum limit enters only through sampling and interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, require_real

# Inputs required to be unit vectors may miss norm 1 by this much.
UNIT_TOL = 1e-6

# Elements of the largest heap-priming block made so far; see Grid.
_primed = 0


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on [0, L] with N cells.

    Attributes
    ----------
    L : float
        Length of the computational interval.
    N : int
        Number of cells.  Must be a power of two, at least 8, so N is
        even for the spectral engine's N-point reordering and its FFTs
        stay fast.
    h : float
        Cell width L / N, derived.
    x : numpy.ndarray
        Midpoint coordinates, shape (N,).
    """

    L: float
    N: int
    h: float = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 8):
            raise ValidationError(f"N must be an integer >= 8, got {self.N!r}")
        if self.N & (self.N - 1) != 0:
            raise ValidationError(f"N must be a power of two, got {self.N}")
        require_real("L", self.L)
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValidationError(f"L must be a positive finite number, got {self.L!r}")
        if self.L / self.N == 0.0:
            raise ValidationError(f"cells of width L/N underflow to 0 at L={self.L!r}, N={self.N}")
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "h", self.L / self.N)
        x = (np.arange(self.N, dtype=np.float64) + 0.5) * self.h
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        # Prime the heap: glibc's malloc, freeing a block it had mmapped,
        # raises its mmap threshold to that size and its trim threshold to
        # twice that (mallopt(3)), so this untouched block of 16 N-point
        # arrays keeps later N-point arrays and FFT scratch mapped.  glibc
        # ignores a freed block above 32 MiB, hence the cap.  A block no
        # larger than the last would raise nothing and come from the heap,
        # where numpy marks it for huge pages, which slowed later
        # transforms.  Elsewhere it costs one untouched allocation.
        global _primed
        if min(16 * self.N, (1 << 21) - 512) > _primed:
            _primed = min(16 * self.N, (1 << 21) - 512)
            np.empty(_primed, dtype=np.complex128)

    def require_same(self, u, what: str = "operands") -> Grid:
        """This grid, refusing a u (anything with a grid) that lives on another."""
        if u.grid != self:
            raise ValidationError(f"{what} live on different grids")
        return self


def make_grid(L: float, N: int) -> Grid:
    """Build a midpoint grid, validating L > 0 and N a power of two >= 8."""
    return Grid(L=L, N=N)


def plane_wave(g: Grid, k: float, out: np.ndarray) -> np.ndarray:
    """e^(i k x_j) at every node, written into the contiguous array out.

    With j = B p + r the phase factors exactly as e^(i k h B p) e^(i k x_r),
    so the N values are one broadcast product of two tables of about
    sqrt(N) exponentials, B = 2^floor(bit_length(N) / 2) and P = N / B of
    them.  Each table's argument is rounded twice, as is that of
    np.exp(1j * k * x), so the two differ by at most about 4u |k| L plus
    a few ulp (u the unit roundoff).
    """
    if not math.isfinite(k * g.L):
        raise ValidationError(f"plane wave e^(i k x) needs a finite k*L, got k={k!r} on L={g.L:g}")
    block = 1 << (g.N.bit_length() // 2)
    inner = np.exp(1j * k * g.x[:block])
    outer = np.exp(1j * (k * block * g.h) * np.arange(g.N // block))
    np.multiply(outer[:, None], inner[None, :], out=out.reshape(-1, block))
    return out


def _samples(grid: Grid, values, copy: bool = True) -> np.ndarray:
    """values checked to be N finite samples: as a private complex copy,
    or with copy=False as values itself, a contiguous complex128 array."""
    v = np.array(values, dtype=np.complex128) if copy else values
    if v.shape != (grid.N,):
        raise ValidationError(f"values shape {v.shape} does not match grid with N={grid.N}")
    # One pass over the float view tests the real and imaginary parts.
    if not np.isfinite(v.view(np.float64)).all():
        raise ValidationError("values must be finite")
    return v


@dataclass
class WaveFunction:
    """Complex amplitudes sampled on a grid, kept as a checked private copy."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _samples(self.grid, self.values)


def _adopt(grid: Grid, v: np.ndarray) -> WaveFunction:
    """A state wrapping v itself, checked as the constructor checks but
    not copied.  v must be a complex128 N-array that the caller has just
    allocated and does not touch again."""
    u = WaveFunction.__new__(WaveFunction)
    u.grid, u.values = grid, _samples(grid, v, copy=False)
    return u


def _scaled(v: np.ndarray, s: float, out: np.ndarray | None = None) -> np.ndarray:
    """v / s for a real s > 0, into out (fresh by default, or v itself).
    numpy divides by s + 0j as a product with 1/s, so the float view times
    1/s gives the same values up to the sign of a zero."""
    out = np.empty_like(v) if out is None else out
    np.multiply(v.view(np.float64), 1.0 / s, out=out.view(np.float64))
    return out


@dataclass
class BoundedFunction:
    """Real or complex bounded multiplier sampled on a grid.

    The samples are finite, so max |f| bounds the multiplier.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _samples(self.grid, self.values)


# Norms and inner products are summed by einsum, which with its default
# optimize=False never calls BLAS: its summation order does not depend on
# the BLAS thread count, so neither do the reports.


def density(u: WaveFunction) -> np.ndarray:
    """Pointwise |u|^2."""
    return u.values.real ** 2 + u.values.imag ** 2


def mass(u: WaveFunction) -> float:
    """Midpoint quadrature h * sum |u|^2, the squared norm."""
    r = u.values.view(np.float64)
    return float(u.grid.h * np.einsum("i,i->", r, r))


def inner(u: WaveFunction, v: WaveFunction) -> complex:
    """Midpoint quadrature inner product, conjugate-linear in the first slot."""
    g = u.grid.require_same(v)
    return complex(g.h * np.einsum("i,i->", u.values.conj(), v.values))


class Pairing:
    """v -> <g, v> against one fixed state g, for pairing g with many states.

    g is conjugated once, and only its nodes [0, end) are kept, end being
    1 plus the last node where g is non-zero.  A call sums conj(g) v over
    those nodes through ``inner``'s einsum.  The nodes it drops add exact
    zeros, and einsum groups a complex sum in blocks counted from node 0,
    so the value is ``inner(g, v)`` bit for bit.  A sum that started past
    node 0 would regroup the blocks and move the last digits; a real sum
    such as ``mass`` over a prefix does not match in every case either.
    """

    def __init__(self, g: WaveFunction) -> None:
        v = g.values
        end = v.shape[0]
        # A vector non-zero on the last node needs no search.  The arches
        # and xexp end in exact zeros (bump12 past x = 2, xexp past x = 27.3).
        if v[-1] == 0:
            nz = np.flatnonzero(v)
            end = int(nz[-1]) + 1 if nz.size else 0
        self.grid, self.end = g.grid, end
        self._conj = v[:end].conj()

    def __call__(self, v: np.ndarray) -> complex:
        """<g, v> for the samples v of a state on g's grid; only v[:end]
        is read, so v may be those nodes alone."""
        return complex(self.grid.h * np.einsum("i,i->", self._conj, v[:self.end]))


def norm(u: WaveFunction) -> float:
    return math.sqrt(mass(u))


def require_unit(u: WaveFunction, who: str) -> None:
    """Refuse a state whose norm misses 1 by more than UNIT_TOL."""
    n = norm(u)
    if abs(n - 1.0) > UNIT_TOL:
        raise ValidationError(f"{who} needs a unit vector, norm is {n:.8f}")


def weighted_mass(f: BoundedFunction, dens: np.ndarray) -> float | complex:
    """Midpoint quadrature h * sum f * dens, real when f is real."""
    val = complex(f.grid.h * np.sum(f.values * dens))
    if np.all(f.values.imag == 0.0):
        return val.real
    return val


def sample_at(u: WaveFunction, pos: np.ndarray) -> np.ndarray:
    """Evaluate u at arbitrary positions by piecewise-linear interpolation.

    Between the first and last midpoints the rule is ordinary linear
    interpolation.  On the half cells [0, x_0) and (x_{N-1}, L] the
    nearest segment is extended linearly, because zero-filling there
    would poison reflected data near the wall.  Outside [0, L] the
    function is zero by convention.  This is the general rule: each
    position is located on its own.  Shifts and reflections of the
    whole grid use the two-slice blend of ``shift_sample`` and
    ``reflect_sample``, and come here only for their half-cell nodes.
    """
    g = u.grid
    pos = np.asarray(pos, dtype=np.float64)
    q = pos / g.h - 0.5
    k = np.minimum(np.maximum(np.floor(q).astype(np.int64), 0), g.N - 2)
    d = q - k
    out = (1.0 - d) * u.values[k] + d * u.values[k + 1]
    inside = (pos >= 0.0) & (pos <= g.L)
    return np.where(inside, out, 0.0 + 0.0j)


def _slice_blend(u: WaveFunction, a: float, step: int) -> np.ndarray:
    """u(a + step * x) at every node x, for step = +1 (shift) or -1 (reflection).

    Position p has grid coordinate p/h - 1/2, so midpoint x_k sits at k
    and node j at q0 + step * j, where q0 = a/h for a shift and a/h - 1
    for a reflection.  With m = floor(q0), node j reads the segment
    [x_k, x_(k+1)], k = m + step * j, at one fraction d = q0 - m shared
    by every node: the nodes with k in [0, N-2] are one blend of two
    slices, contiguous or reversed.  The at most two nodes with k = -1 or
    k = N-1 may sit on a half cell or beyond an end of [0, L]; they go to
    ``sample_at`` at a + step * x_j, so the inside test is the general
    rule's.  Every other node lies beyond [0, L] and is zero.
    """
    g = u.grid
    n = g.N
    q0 = a / g.h if step > 0 else a / g.h - 1.0
    # Past 4N every node is beyond [0, L]; this also catches q0 = inf.
    if not abs(q0) < 4 * n:
        return np.zeros(n, dtype=np.complex128)
    m = math.floor(q0)
    d = q0 - m
    lo, hi = sorted((-m * step, (n - 2 - m) * step))
    lo, hi = max(lo, 0), min(hi, n - 1)
    out = np.empty(n, dtype=np.complex128)
    if lo > hi:
        out.fill(0.0)
    else:
        out[:lo] = 0.0
        out[hi + 1:] = 0.0
        k = min(m + step * lo, m + step * hi)
        seg = u.values[k:k + hi - lo + 2][::step]
        # Node lo + i is (1 - d) seg[i] + d seg[i + 1] for step = 1 and
        # (1 - d) seg[i + 1] + d seg[i] for step = -1, written in place.
        near, far = (seg[:-1], seg[1:]) if step > 0 else (seg[1:], seg[:-1])
        blend = out[lo:hi + 1]
        np.multiply(1.0 - d, near, out=blend)
        blend += d * far
    edge = [j for j in ((-1 - m) * step, (n - 1 - m) * step) if 0 <= j < n]
    if edge:
        j = np.array(edge)
        out[j] = sample_at(u, a + step * g.x[j])
    return out


def shift_sample(u: WaveFunction, s: float) -> WaveFunction:
    """Sample x -> u(x + s), with zero inflow from beyond the domain.

    The values are those of ``sample_at(u, x + s)`` up to roundoff in
    the interpolation weight: node j reads grid coordinate j + s/h, so
    every node shares one weight and the nodes are a two-slice blend.
    s = 0 reproduces u exactly, with no interpolation roundoff.
    """
    require_real("shift", s)
    if not math.isfinite(s):
        raise ValidationError(f"shift must be finite, got {s!r}")
    if s == 0.0:
        return WaveFunction(u.grid, u.values)
    return _adopt(u.grid, _slice_blend(u, s, 1))


def reflect_sample(u: WaveFunction, c: float) -> WaveFunction:
    """Sample x -> u(c - x), the mirror image of u about c/2.

    The values are those of ``sample_at(u, c - x)`` up to roundoff in
    the interpolation weight: node j reads grid coordinate
    (c/h - 1) - j, so every node shares one weight and the nodes are a
    blend of two reversed slices.
    """
    require_real("reflection offset", c)
    if not math.isfinite(c):
        raise ValidationError(f"reflection offset must be finite, got {c!r}")
    return _adopt(u.grid, _slice_blend(u, c, -1))


def indicator_project(u: WaveFunction, a: float, b: float) -> WaveFunction:
    """Multiply by the indicator of the closed band [a, b] intersected with the grid."""
    require_real("band endpoint a", a)
    require_real("band endpoint b", b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("band endpoints must be finite")
    if a > b:
        raise ValidationError(f"band endpoints out of order: a={a} > b={b}")
    # x is sorted, so the nodes in [a, b] are the one slice [lo, hi).
    lo = np.searchsorted(u.grid.x, a, "left")
    hi = np.searchsorted(u.grid.x, b, "right")
    out = np.empty(u.grid.N, dtype=np.complex128)
    out[:lo] = 0.0
    out[lo:hi] = u.values[lo:hi]
    out[hi:] = 0.0
    return _adopt(u.grid, out)


def boundary_value(u: WaveFunction) -> complex:
    """Quadratic extrapolation of the first three midpoint samples to x = 0."""
    v = u.values
    return complex(1.875 * v[0] - 1.25 * v[1] + 0.375 * v[2])


def boundary_defect(u: WaveFunction) -> float:
    """Extrapolated boundary amplitude relative to the peak amplitude.

    Zero for the zero function.  Functions vanishing linearly at the
    wall score O(h^3) here, so the check separates genuinely pinned
    data from data with an O(1) trace.
    """
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return 0.0
    return abs(boundary_value(u)) / peak
