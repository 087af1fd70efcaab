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
size, the gauge and forward transform once per viscosity, the time
multiplier once per viscous time epsilon t, and one inverse transform
runs per pair.

The ladder is the one place the package runs a second thread: one
worker, shared by every ladder in the process, computes the N-point
complex exponentials (the multipliers, and each gauge after the first
rung's) one job ahead of the caller.  The FFTs, the mixing, the
un-gauge and every ``WaveFunction`` stay on the caller's thread.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from queue import SimpleQueue

import numpy as np

from .errors import ResolutionError, ResolutionWarning, ValidationError, check_params
from .grid import (
    Grid,
    WaveFunction,
    boundary_defect,
    norm,
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


def _toeplitz_apply(col, v):
    """Product T v with T[i, j] = col[i - j + n - 1], by circulant embedding.

    The Toeplitz matrix is the leading n x n block of a 2n circulant
    whose first column is col[n-1:], a zero, col[:n-1]; a circulant is
    diagonal in the Fourier basis (Golub & Van Loan, Matrix
    Computations, section 4.7).
    """
    n = v.shape[0]
    c = np.concatenate((col[n - 1:], [0.0], col[:n - 1]))
    return np.fft.ifft(np.fft.fft(c) * np.fft.fft(v, 2 * n))[:n]


def _kernel_sum_fft(x, phi, eps, b, t, h):
    """Midpoint quadrature of the image-charge propagator in O(N log N).

    On uniform nodes the direct phase a (x_i - x_j + b t)^2 depends only
    on i - j, a Toeplitz matrix, and the image phase
    a (x_i + x_j - b t)^2 only on i + j, a Hankel matrix, which is the
    Toeplitz matrix of the reversed data.  Both products are exact up to
    FFT roundoff, so this is the same sum as evaluating every phase
    literally.
    """
    n = x.shape[0]
    a = 1.0 / (4.0 * eps * t)
    pref = np.exp(-0.25j * np.pi) / math.sqrt(4.0 * math.pi * eps * t) * h
    # Offsets (i - j) h.  With the data reversed, j -> n - 1 - j, the
    # image argument (i + j + 1) h - b t becomes (i - j) h + n h - b t.
    d = np.arange(1 - n, n) * h
    direct = _toeplitz_apply(np.exp(1j * a * (d + b * t) ** 2), phi)
    image = _toeplitz_apply(np.exp(1j * a * (d + n * h - b * t) ** 2), phi[::-1])
    return pref * (direct - np.exp(1j * b / eps * x) * image)


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
    vals = _kernel_sum_fft(g.x, phi.values, p.epsilon, p.b, p.t, g.h)
    u = WaveFunction(g, vals)
    n0, n1 = norm(phi), norm(u)
    if abs(n1 - n0) > KERNEL_NORM_TOL * n0:
        raise ResolutionError(
            f"kernel_evolve at eps*t={p.epsilon * p.t:.3e}: the sum has norm {n1:.3e} "
            f"against the data's {n0:.3e}, so the state leaves [0, L]"
        )
    return u


def _at_minus_q(v: np.ndarray) -> np.ndarray:
    """v_(-q mod N) for q = 0..N-1: the FFT index reflected through zero."""
    return np.concatenate((v[:1], v[:0:-1]))


@lru_cache(maxsize=8)
def _twiddle(n: int) -> np.ndarray:
    """e^(i pi q / N) for q = 0..N-1, read-only: it depends on N alone."""
    tw = np.exp(1j * math.pi / n * np.arange(n))
    tw.setflags(write=False)
    return tw


def _phase(c: complex, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = e^(c x), computed in out itself: the worker thread allocates
    no N-point array, so none stays resident in its own malloc arena."""
    np.multiply(c, x, out=out)
    return np.exp(out, out=out)


def _free_flow(s: float, k2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The free-flow multiplier e^(-i s k^2) at viscous time s = epsilon t, into out."""
    return _phase(-1j * s, k2, out)


class _Job:
    """One call fn(*args) for the worker thread.  ``wait`` returns once it
    has run, and re-raises whatever it raised."""

    __slots__ = ("fn", "args", "error", "done")

    def __init__(self, fn, args) -> None:
        self.fn, self.args = fn, args
        self.error: BaseException | None = None
        self.done = threading.Event()

    def run(self) -> None:
        try:
            self.fn(*self.args)
        except BaseException as e:  # the worker lives on; the waiting caller re-raises it
            self.error = e
        finally:
            self.done.set()

    def wait(self) -> None:
        self.done.wait()
        if self.error is not None:
            raise self.error


# The exponential worker: one daemon thread serving one queue, started by
# the first job in the process and shared by every ladder after it.
_jobs: SimpleQueue | None = None
_jobs_lock = threading.Lock()


def _serve(jobs: SimpleQueue) -> None:
    while True:
        jobs.get().run()


def _submit(fn, *args) -> _Job:
    """Queue fn(*args) on the worker thread, starting it on first use."""
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            _jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="halfline-exp",
                             daemon=True).start()
        job = _Job(fn, args)
        _jobs.put(job)
    return job


def _forget_worker() -> None:
    """A forked child inherits the queue but not the thread: start afresh."""
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


class _Ahead:
    """A walk's N-point exponentials, filled on the worker thread one job
    ahead of the caller, in the order ``take`` hands them out.

    A job (fn, *args) runs fn(*args, out) into an array that the
    caller's thread allocates.  The first job starts at construction.
    """

    def __init__(self, jobs, n: int) -> None:
        self._jobs = iter(jobs)
        self._n = n
        self._next = self._start()

    def _start(self):
        job = next(self._jobs, None)
        if job is None:
            return None
        out = np.empty(self._n, dtype=np.complex128)
        return out, _submit(*job, out)

    def take(self) -> np.ndarray:
        """The next job's array once filled; the job after it starts now."""
        out, job = self._next
        self._next = self._start()
        job.wait()
        return out

    def close(self) -> None:
        """Wait out the job in flight, so that none outlives the walk.

        Not while the interpreter shuts down: a walk left open is closed
        then, after the daemon worker has stopped for good, and waiting
        would hang the exit.  The job keeps its array alive either way."""
        if self._next is not None and not sys.is_finalizing():
            self._next[1].done.wait()
        self._next = None


def _spectral_gates(phi: WaveFunction, eps, b: float, times) -> None:
    """Every refusal of a spectral walk over eps x times: a bad parameter,
    an unresolved rung, a viscous time whose top-mode phase overflows,
    data that do not vanish at the wall."""
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
    _require_pinned(phi, "spectral_evolve")


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
    once per grid size; the gauge and the forward FFT once per epsilon;
    the multiplier once per viscous time s = epsilon t, held until the
    last pair with that s; one inverse FFT per pair.

    One worker thread, started by the first ladder and shared by all,
    fills the N-point exponentials one job ahead of the caller: every
    multiplier in order of first use, and every rung's gauge after the
    first.  The caller's thread computes the first gauge while the
    worker computes the first multiplier.  The worker writes into arrays
    that the caller's thread allocates and runs numpy alone; the FFTs,
    the mix, the un-gauge and every ``WaveFunction`` stay on the
    caller's thread, in a serial walk's order and with its operands, so
    the bytes are those of a serial walk.
    """
    g = phi.grid
    n = g.N
    eps = tuple(eps)
    times = tuple(times)
    _spectral_gates(phi, eps, b, times)

    twiddle = _twiddle(n)
    k2 = (np.arange(n, 0, -1) * (math.pi / g.L)) ** 2
    # The worker's jobs in the order the walk takes them: each rung's gauge
    # after the first, each viscous time's multiplier at its first pair.
    jobs, uses = [], Counter()
    for i, e in enumerate(eps):
        if i:
            jobs.append((_phase, -0.5j * b / e, g.x))
        for t in times:
            if not uses[e * t]:
                jobs.append((_free_flow, e * t, k2))
            uses[e * t] += 1
    ahead = _Ahead(jobs, n)
    multipliers: dict[float, np.ndarray] = {}
    try:
        for i, e in enumerate(eps):
            if i:
                gauge = ahead.take()
            else:
                gauge = _phase(-0.5j * b / e, g.x, np.empty(n, dtype=np.complex128))
            # The sign (-1)^j rides on the gauge; it is real, so the
            # conjugate gauge undoes both.
            gauge[1::2] *= -1.0
            s = gauge * phi.values
            w = np.fft.fft(np.concatenate((s[0::2], s[::-2])))
            del s
            w *= 0.5
            np.conjugate(gauge, out=gauge)
            for t in times:
                st = e * t
                m = multipliers.get(st)
                if m is None:
                    m = multipliers[st] = ahead.take()
                uses[st] -= 1
                if uses[st] == 0:
                    del multipliers[st]
                m_neg = _at_minus_q(m)
                even = m + m_neg
                even *= w
                np.subtract(m, m_neg, out=m_neg)
                del m
                w_neg = _at_minus_q(w)
                # numpy's complex product is not bit-symmetric in its
                # operands; twiddle first keeps reports byte-stable.
                np.multiply(twiddle, w_neg, out=w_neg)
                m_neg *= w_neg
                del w_neg
                even += m_neg
                del m_neg
                v = np.fft.ifft(even, out=even)
                del even
                u = np.empty(n, dtype=np.complex128)
                u[0::2] = v[:n // 2]
                u[::-2] = v[n // 2:]
                del v
                u *= gauge
                u *= np.exp(0.25j * b * b * t / e)
                out = WaveFunction(g, u)
                del u
                yield e, t, out
                # Hold no state while the next is built: a caller that
                # drops its copy frees the memory.
                del out
    finally:
        ahead.close()


def spectral_evolve(phi: WaveFunction, p: EvolutionParams) -> WaveFunction:
    """Evolve by gauge transform and sine transform: ``spectral_ladder``
    at the one pair (p.epsilon, p.t).  t = 0 returns the data unchanged,
    once they pass the ladder's gates."""
    if p.t == 0:
        _spectral_gates(phi, (p.epsilon,), p.b, ())
        return WaveFunction(phi.grid, phi.values)
    ((_, _, u),) = spectral_ladder(phi, (p.epsilon,), p.b, (p.t,))
    return u


def asymptotic_evolve(phi: WaveFunction, p: EvolutionParams) -> WaveFunction:
    """Two-wave closed form: transported data minus a reflected ripple.

    The reflected term carries the phase e^(i b x / epsilon) and lives
    on [0, b t]; for b < 0 it vanishes identically and the transport
    alone remains.  Underresolved grids get a warning, not a refusal,
    because the formula itself is grid-exact and only its pointwise
    oscillation is at stake.
    """
    g = phi.grid
    lam, ppw = phase_resolution(g, p.epsilon, p.b)
    if ppw < 2.0 * PPW_MIN:
        warnings.warn(
            f"asymptotic phase wavelength {lam:.3e} underresolved "
            f"({ppw:.2f} points per wavelength)",
            ResolutionWarning,
            stacklevel=2,
        )
    moved = shift_sample(phi, p.b * p.t)
    mirrored = reflect_sample(phi, p.b * p.t)
    return WaveFunction(g, moved.values - np.exp(1j * p.b / p.epsilon * g.x) * mirrored.values)


def remainder_norm(phi: WaveFunction, p: EvolutionParams) -> float:
    """Distance between the viscous evolution and the two-wave form."""
    u = spectral_evolve(phi, p)
    v = asymptotic_evolve(phi, p)
    return norm(WaveFunction(phi.grid, u.values - v.values))


def limit_group_V(phi: WaveFunction, b: float, t: float) -> WaveFunction:
    """Candidate limit dynamics: pure transport x -> x + b t.

    A contraction for b > 0 (mass crossing the wall is lost), an
    isometry for b < 0 while the support stays inside the grid.
    """
    check_params(b=b, t=t)
    return shift_sample(phi, b * t)
