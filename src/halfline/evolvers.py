"""Regularized evolution engines on the truncated half line.

Three routes compute or approximate the viscous group at viscosity
epsilon with drift b:

* ``kernel_evolve``    image-charge propagator quadrature by FFT (b > 0, t > 0)
* ``spectral_evolve``  gauge transform plus N-point sine transform (any sign of b)
* ``asymptotic_evolve`` two-wave closed form, exact only in the limit

The first two are independent discretizations of the same group and
are cross-checked against each other in the tests; the third is the
candidate limit shape whose distance to the others is the quantity
convergence sweeps measure.  ``spectral_ladder`` is the spectral route
over a whole viscosity x time grid: the twiddle is built once per grid
size, the gauge and forward transform once per viscosity, and one
free-flow chirp and one inverse transform per pair, all on the
caller's thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResolutionError, ResolutionWarning, ValidationError, check_params
from .grid import (
    Grid,
    WaveFunction,
    _adopt,
    boundary_defect,
    norm,
    plane_wave,
    reflect_sample,
    shift_sample,
)

# Shortest wavelength carried by the solution is 2 pi epsilon / |b|.
# Engines demand twice PPW_MIN points on it: the reflected wave rides
# on top of a quadratic chirp whose local frequency exceeds the
# nominal one near the wavefront.
PPW_MIN = 8.0

# Sampled data must extrapolate to at most this relative amplitude at
# the wall before evolution makes sense.
BOUNDARY_GATE = 1e-3

# The kernel route preserves the norm only to quadrature accuracy.  A sum
# whose norm misses the data's by more than this relative amount has
# spread beyond [0, L], and kernel_evolve refuses it.
KERNEL_NORM_TOL = 1e-3


@dataclass(frozen=True)
class EvolutionParams:
    """Viscosity epsilon > 0, drift b != 0, horizon t >= 0."""

    epsilon: float
    b: float
    t: float

    def __post_init__(self) -> None:
        check_params(self.epsilon, self.b, self.t)


def phase_resolution(grid: Grid, epsilon: float, b: float) -> tuple[float, float]:
    """The wavelength of the phase e^(i b x / epsilon) and the grid's
    points per wavelength; a grid resolves it at 2 PPW_MIN or more."""
    check_params(epsilon, b)
    lam = 2.0 * math.pi * epsilon / abs(b)
    return lam, lam / grid.h


def require_resolved(grid: Grid, epsilon: float, b: float, who: str) -> None:
    """Refuse (epsilon, b) on a grid that underresolves its phase."""
    lam, ppw = phase_resolution(grid, epsilon, b)
    if ppw < 2.0 * PPW_MIN:
        raise ResolutionError(
            f"{who} at epsilon={epsilon:g} needs {2 * PPW_MIN:.0f} points per "
            f"wavelength {lam:.3e}, grid provides {ppw:.2f}"
        )


def _require_pinned(phi: WaveFunction, engine: str) -> None:
    d = boundary_defect(phi)
    if d > BOUNDARY_GATE:
        raise ValidationError(
            f"{engine} needs data vanishing at the wall, "
            f"relative boundary amplitude is {d:.3e}"
        )


def _kernel_sum_fft(g: Grid, phi, eps, b, t):
    """Midpoint quadrature of the image-charge propagator in O(N log N).

    With theta = a h^2 and kappa = 2 a b t h, the direct phase
    a (x_i - x_j + b t)^2 is theta m^2 + kappa m + a (b t)^2 at m = i - j
    and the image phase a (x_i + x_j - b t)^2 is theta m^2 - kappa m +
    a (b t)^2 at m = i + j + 1: two ``_quadratic_phase`` tables, over
    m < N and m < 2N, with e^(i a (b t)^2) on the prefactor.  The direct
    term is a 2N-point circulant convolution, diagonal in the Fourier
    basis (Golub & Van Loan, Matrix Computations, section 4.7).  The image
    term is the correlation r_(i+1), r_m = sum_k col[m + k] v_k, whose
    transform is that of col times V(-q), the data's transform V read
    backwards.  Five 2N-point FFTs, exact up to roundoff: the same sum as
    evaluating every phase literally.
    """
    n, h = g.N, g.h
    a = 1.0 / (4.0 * eps * t)
    bt = b * t
    theta, kappa = a * h * h, 2.0 * a * bt * h
    pref = np.exp(1j * (a * bt * bt - 0.25 * np.pi)) / math.sqrt(4.0 * math.pi * eps * t) * h
    image = _quadratic_phase(2 * n, theta, -kappa, np.empty(2 * n, dtype=np.complex128))
    # The circulant column: offsets 0..n-1, a zero, then -(n-1)..-1.
    direct = np.empty(2 * n, dtype=np.complex128)
    _quadratic_phase(n, theta, kappa, direct[:n])
    direct[n] = 0.0
    direct[n + 1:] = image[n - 1:0:-1]
    v = np.fft.fft(phi, 2 * n)
    direct = np.fft.fft(direct, out=direct)
    direct *= v
    image = np.fft.fft(image, out=image)
    image[0] *= v[0]
    image[1:] *= v[:0:-1]
    del v
    direct = np.fft.ifft(direct, out=direct)
    image = np.fft.ifft(image, out=image)
    out = plane_wave(g, b / eps, np.empty(n, dtype=np.complex128))
    out *= image[1:n + 1]
    np.subtract(direct[:n], out, out=out)
    out *= pref
    return out


def kernel_evolve(phi: WaveFunction, p: EvolutionParams) -> WaveFunction:
    """Evolve by direct quadrature of the image-charge propagator.

    Refuses t = 0 (the kernel is singular there, the group is the
    identity), b < 0 (the image form is specific to inflow), any grid
    that underresolves either the output phase or the chirp of the
    kernel itself, and a sum whose norm misses the data's by more than
    KERNEL_NORM_TOL: the state has spread beyond [0, L].

    Parameters
    ----------
    phi : WaveFunction
        Initial data, vanishing at the wall to within BOUNDARY_GATE.
    p : EvolutionParams
        Viscosity, drift, and horizon.
    """
    g = phi.grid
    if p.t == 0:
        raise ValidationError("kernel quadrature is singular at t = 0")
    if p.b < 0:
        raise ValidationError("kernel route requires b > 0, use spectral_evolve")
    require_resolved(g, p.epsilon, p.b, "kernel_evolve")
    _require_pinned(phi, "kernel_evolve")
    # The chirp wavelength at the far edge of the integration range is
    # 4 pi eps t / M with M the largest phase-argument magnitude.
    reach = max(g.L + p.b * p.t, 2.0 * g.L - p.b * p.t, p.b * p.t)
    lam_chirp = 4.0 * math.pi * p.epsilon * p.t / reach
    if lam_chirp < PPW_MIN * g.h:
        raise ResolutionError(
            f"kernel chirp wavelength {lam_chirp:.3e} needs h <= "
            f"{lam_chirp / PPW_MIN:.3e}, grid has h = {g.h:.3e}"
        )
    vals = _kernel_sum_fft(g, phi.values, p.epsilon, p.b, p.t)
    u = _adopt(g, vals)
    n0, n1 = norm(phi), norm(u)
    if abs(n1 - n0) > KERNEL_NORM_TOL * n0:
        raise ResolutionError(
            f"kernel_evolve at eps*t={p.epsilon * p.t:.3e}: the sum has norm {n1:.3e} "
            f"against the data's {n0:.3e}, so the state leaves [0, L]"
        )
    return u


@lru_cache(maxsize=8)
def _twiddle(n: int) -> np.ndarray:
    """e^(i pi q / N) for q = 0..N-1, read-only: it depends on N alone."""
    tw = np.exp(1j * math.pi / n * np.arange(n))
    tw.setflags(write=False)
    return tw


def _quadratic_phase(n: int, theta: float, kappa: float, out: np.ndarray) -> np.ndarray:
    """e^(i (theta j^2 + kappa j)) for j = 0..n-1, n a power of two,
    written into the contiguous array out.

    With j = A a + B b + c in three power-of-two digits, B the size of
    the c digit and A that of (b, c), the cross terms of j^2 separate:
    the phase is theta (A a + B b)^2 + kappa (A a + B b), plus
    theta (2 A a c + c^2) + kappa c, plus theta 2 B b c, three tables of
    about n^(2/3) exponentials joined by two broadcast products.  Every
    argument is theta and kappa times exact integers, so the phase error
    stays within a few units of (theta n^2 + |kappa| n) u (u the unit
    roundoff), as does that of one n-point np.exp.
    """
    bits = n.bit_length() - 1
    na = 1 << (bits // 3)
    nb = 1 << ((bits - bits // 3) // 2)
    nc = n // (na * nb)
    a = np.arange(na) * float(nb * nc)
    b = np.arange(nb) * float(nc)
    c = np.arange(nc, dtype=np.float64)
    hi = a[:, None] + b
    ab = np.exp(1j * (theta * hi ** 2 + kappa * hi))
    ac = np.exp(1j * (theta * (2.0 * a[:, None] * c + c * c) + kappa * c))
    bc = np.exp(1j * (theta * (2.0 * b[:, None] * c)))
    cube = out.reshape(na, nb, nc)
    np.multiply(ab[:, :, None], ac[:, None, :], out=cube)
    cube *= bc
    return out


def _chirp(g: Grid, s: float, out: np.ndarray) -> np.ndarray:
    """c_j = e^(-i theta j^2), theta = s (pi / L)^2, for j = 0..N-1,
    written into the contiguous array out: the free flow at viscous time
    s on the sine mode j, a ``_quadratic_phase`` table."""
    k = math.pi / g.L
    theta = s * k * k  # formed as the top-mode gate forms s (N k)^2, so it stays finite
    return _quadratic_phase(g.N, -theta, 0.0, out)


def spectral_ladder(phi: WaveFunction, eps, b: float, times):
    """Evolve to every (epsilon, t) of a viscosity x time grid, yielding
    (epsilon, t, u) epsilon-major.

    The gauge e^(i b x / 2 eps) removes the drift, the free flow turns
    each sine mode sin(k pi x / L), k = 1..N, by e^(-i eps t (k pi / L)^2),
    and the gauge returns with the phase e^(i b^2 t / 4 eps).  Unitary
    up to roundoff for any sign of b.

    The midpoint sine transform (DST-II) of u_j is the DCT-II of
    (-1)^j u_j read from the top, q = N - k, and that is one N-point FFT
    W of the even samples followed by the odd ones reversed (Makhoul,
    IEEE Trans. ASSP 28, 1980, 27-34).  A multiplier m_q on the cosine
    modes mixes W_q only with W_(-q):
    W'_q = (m_q + m_(N-q)) W_q / 2 + e^(i pi q / N) (m_q - m_(N-q)) W_(-q) / 2.

    Each piece of work is done once for what it depends on: the gates
    once for the whole grid, before any FFT; the twiddle e^(i pi q / N)
    once per grid size; the gauge, the forward FFT and the twiddled sum
    and difference of W_q and W_(-q) once per epsilon; one chirp
    (``_chirp``, three small tables) and one inverse FFT per pair.

    Every refusal comes at the call, before the walk is iterated: those
    of ``ladder_gates``.
    """
    eps, times = tuple(eps), tuple(times)
    ladder_gates(phi, eps, b, times)
    return _walk(phi, eps, b, times)


def ladder_gates(phi: WaveFunction, eps, b: float, times) -> None:
    """The gates ``spectral_ladder`` runs on its viscosity x time grid,
    one per rung: a bad parameter, an unresolved rung, a viscous time
    whose top-mode phase overflows, an un-gauge phase b^2 t / 4 eps that
    overflows, data that do not vanish at the wall."""
    for t in times:
        check_params(t=t)
    top = phi.grid.N * (math.pi / phi.grid.L)  # largest sine wavenumber
    for e in eps:
        check_params(epsilon=e, b=b)
        require_resolved(phi.grid, e, b, "spectral_evolve")
        for t in times:
            if not math.isfinite(e * t * top * top):
                raise ValidationError(
                    f"spectral_evolve at eps*t={e * t:.3e}: the phase eps*t*(N*pi/L)^2 "
                    f"of the top sine mode overflows"
                )
            # _walk's un-gauge phase 0.25j * b * b * t / e, factors in its order
            if not math.isfinite(0.25 * b * b * t / e):
                raise ValidationError(
                    f"spectral_evolve at eps={e:.3e}, b={b:.3e}, t={t:.3e}: the "
                    f"un-gauge phase b^2*t/(4*eps) overflows"
                )
    _require_pinned(phi, "spectral_evolve")


def _walk(phi: WaveFunction, eps: tuple, b: float, times: tuple):
    """The generator behind ``spectral_ladder``, on gated arguments."""
    g = phi.grid
    n = g.N
    twiddle = _twiddle(n)
    top = n * (math.pi / g.L)  # the q = 0 mode's wavenumber, as gated
    for e in eps:
        gauge = plane_wave(g, -0.5 * b / e, np.empty(n, dtype=np.complex128))
        # The sign (-1)^j rides on the gauge; it is real, so the
        # conjugate gauge undoes both.
        gauge[1::2] *= -1.0
        # The gauged data, even samples then odd ones reversed, written
        # straight into the transform's buffer.
        w = np.empty(n, dtype=np.complex128)
        np.multiply(gauge[0::2], phi.values[0::2], out=w[:n // 2])
        np.multiply(gauge[::-2], phi.values[::-2], out=w[n // 2:])
        w = np.fft.fft(w, out=w)
        w *= 0.5
        np.conjugate(gauge, out=gauge)
        # X = W + tau W(-q) and Y = W - tau W(-q), tau the twiddle: the
        # pair's multiplier m then mixes as m X + m(-q) Y.  W(-q) is W_0
        # at q = 0 and W reversed after it.
        y = np.empty(n, dtype=np.complex128)
        y[0] = twiddle[0] * w[0]
        np.multiply(twiddle[1:], w[:0:-1], out=y[1:])
        x = w + y
        np.subtract(w, y, out=y)
        del w
        for t in times:
            # m_q = c_(N-q) for q >= 1 and m(-q) = c_q; Y_0 = 0, so the
            # Nyquist multiplier m_0 meets X_0 alone.
            c = _chirp(g, e * t, np.empty(n, dtype=np.complex128))
            v = np.empty(n, dtype=np.complex128)
            v[0] = np.exp(-1j * (e * t * top * top)) * x[0]
            np.multiply(c[:0:-1], x[1:], out=v[1:])
            c *= y
            v += c
            del c
            v = np.fft.ifft(v, out=v)
            u = np.empty(n, dtype=np.complex128)
            u[0::2] = v[:n // 2]
            u[::-2] = v[n // 2:]
            del v
            u *= gauge
            u *= np.exp(0.25j * b * b * t / e)
            out = _adopt(g, u)
            del u
            yield e, t, out
            # Hold no state while the next is built: a caller that
            # drops its copy frees the memory.
            del out


def spectral_evolve(phi: WaveFunction, p: EvolutionParams) -> WaveFunction:
    """Evolve by gauge transform and sine transform: ``spectral_ladder``
    at the one pair (p.epsilon, p.t).  t = 0 returns the data unchanged,
    once they pass the ladder's gates."""
    if p.t == 0:
        ladder_gates(phi, (p.epsilon,), p.b, ())
        return WaveFunction(phi.grid, phi.values)
    ((_, _, u),) = spectral_ladder(phi, (p.epsilon,), p.b, (p.t,))
    return u


def two_wave(moved, phase, mirrored, out):
    """The two-wave form moved - phase * mirrored, written into out (which
    may be phase) and returned.  Phase first: numpy's complex product is
    not bit-symmetric in its operands, and reports depend on its bytes."""
    np.multiply(phase, mirrored, out=out)
    return np.subtract(moved, out, out=out)


def asymptotic_evolve(phi: WaveFunction, p: EvolutionParams) -> WaveFunction:
    """Two-wave closed form: transported data minus a reflected ripple.

    The reflected term carries the phase e^(i b x / epsilon) and lives
    on [0, b t]; for b < 0 it vanishes identically and the transport
    alone is returned, with no phase formed, so neither the refusal nor
    the warning below applies there.  For b > 0, underresolved grids get
    a warning, not a refusal, because the formula itself is grid-exact
    and only its pointwise oscillation is at stake.  A b / epsilon too
    large for the phase to be computed at all is refused, before any
    warning.
    """
    g = phi.grid
    moved = shift_sample(phi, p.b * p.t)
    if p.b < 0:
        return moved
    mirrored = reflect_sample(phi, p.b * p.t)
    # The phase array comes after both samples: allocated before them, it
    # left the heap one N-point block larger at later sweeps' peak RSS.
    d = plane_wave(g, p.b / p.epsilon, np.empty(g.N, dtype=np.complex128))
    lam, ppw = phase_resolution(g, p.epsilon, p.b)
    if ppw < 2.0 * PPW_MIN:
        warnings.warn(
            f"asymptotic phase wavelength {lam:.3e} underresolved "
            f"({ppw:.2f} points per wavelength)",
            ResolutionWarning,
            stacklevel=2,
        )
    return _adopt(g, two_wave(moved.values, d, mirrored.values, out=d))


def remainder_norm(phi: WaveFunction, p: EvolutionParams) -> float:
    """Distance between the viscous evolution and the two-wave form."""
    u = spectral_evolve(phi, p)
    v = asymptotic_evolve(phi, p)
    return norm(_adopt(phi.grid, u.values - v.values))


def limit_group_V(phi: WaveFunction, b: float, t: float) -> WaveFunction:
    """Candidate limit dynamics: pure transport x -> x + b t.

    A contraction for b > 0 (mass crossing the wall is lost), an
    isometry for b < 0 while the support stays inside the grid.
    """
    check_params(b=b, t=t)
    return shift_sample(phi, b * t)
