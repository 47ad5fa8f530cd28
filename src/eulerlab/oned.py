"""One-dimensional boundary-value problems behind the planar constructions.

Two problems are solved here, both of the form -u'' = f(u) with Dirichlet
data, by the method of sub- and supersolutions run as a shifted Picard
iteration:

* the positive transverse profile on (-1, 1) vanishing at both walls, which
  exists once f beats the principal Dirichlet eigenvalue pi^2/4 at the origin
  and f(s)/s decreases;
* the increasing connection on (0, L) from 0 to the far-field state 1 of a
  balanced double-well nonlinearity (tanh(x/sqrt 2) for f(s) = s - s^3).

Each linear sweep solves (-d^2/dx^2 + shift) u_next = f(u) + shift*u with
a DST-I pair of sine transforms.  With the shift at least -min f' on the
sandwich range, the monotone bound, f(s) + shift*s is nondecreasing there,
so sweeps started from a subsolution increase pointwise and sweeps started
from a supersolution decrease, staying inside the sandwich; both facts are
asserted on every sweep rather than trusted.  The shift sits just above that
bound, since the sweeps contract more slowly as it grows.
One engine, :func:`_monotone_sweeps`, and one linear solve,
:class:`_DirichletSolver`, run these sweeps for the float64 phase, the
extended-precision polish and the 2D solver of :mod:`eulerlab.elliptic2d`.

The engine watches the ratio of successive step norms.  A caller that
passes a certificate (the 2D solver does; the 1D solves, which cost little,
do not) gets a damped Aitken jump along the last step once that rate has
settled, kept only if the certificate accepts it as a new start of the same
monotone iteration.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from collections import namedtuple

import numpy as np

from . import grid as _g
from . import serialize as _ser


class NoSubsolution(RuntimeError):
    """No admissible subsolution amplitude exists: f never clears the
    principal-eigenvalue line near 0, so only the trivial solution remains."""


class NonConvergence(RuntimeError):
    pass


class BadTruncation(RuntimeError):
    """The truncated interval is too short for the far-field attachment."""


# ---------------------------------------------------------------------------
# nonlinearities


class Nonlinearity:
    """An odd reaction term f with derivative, antiderivative, and bound.

    ``F`` is the antiderivative with F(0) = 0.  ``bound_M`` bounds |f| on the
    range the solvers visit (all of R for the arctan family, [-1, 1] for the
    double well).  ``family`` tags the construction in a flow's provenance:
    ArctanFamily or AllenCahn for the builders below, any other name for a
    reaction term built directly.
    """

    def __init__(self, f, f_prime, F, bound_M, family):
        self.f = f
        self.f_prime = f_prime
        self.F = F
        self.bound_M = float(bound_M)
        self.family = family


def arctan_family(lam: float) -> Nonlinearity:
    """f(s) = lam*arctan(s): odd, bounded by lam*pi/2, f(s)/s decreasing.

    Solvability of the strip profile needs lam > pi^2/4; smaller lam is
    accepted here and rejected by the solver (NoSubsolution), which is the
    observable the eigenvalue threshold produces.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")

    def f_prime(s):
        # s^2 overflows to inf past ~1e154, giving the exact limit 0
        with np.errstate(over="ignore"):
            return lam / (1.0 + np.square(s))

    return Nonlinearity(
        f=lambda s: lam * np.arctan(s),
        f_prime=f_prime,
        F=lambda s: lam * (s * np.arctan(s) - 0.5 * np.log1p(np.square(s))),
        bound_M=lam * np.pi / 2.0,
        family="ArctanFamily",
    )


def allen_cahn() -> Nonlinearity:
    # |f| <= 2/(3 sqrt 3) on [-1, 1], the range the double-well solvers visit
    return Nonlinearity(
        f=lambda s: s - s ** 3,
        f_prime=lambda s: 1.0 - 3.0 * np.square(s),
        F=lambda s: 0.5 * np.square(s) - 0.25 * np.square(s) ** 2,
        bound_M=2.0 / (3.0 * np.sqrt(3.0)),
        family="AllenCahn",
    )


def picard_shift(nl: Nonlinearity, smax: float) -> float:
    """Linearizing shift for the monotone sweeps over the range [0, smax].

    The sweeps are monotone once s -> f(s) + shift*s is nondecreasing, that
    is shift >= -min f', and this is that bound plus a 0.1 margin.  Nothing
    is gained above it: the sweep contracts at the largest generalized
    eigenvalue of (f' + shift) against (-Lap_h + shift), which rises with
    the shift.  For the arctan family, f' > 0, so the shift is 0.1.
    """
    s = np.linspace(0.0, max(smax, 1e-12), 4096)
    return float(np.maximum(0.0, -np.min(nl.f_prime(s)))) + 0.1


# ---------------------------------------------------------------------------
# profiles


class Profile:
    """Converged profile on a uniform grid; its end values are its
    Dirichlet pair.

    ``residual`` is the defect max-norm achieved by the solver in its working
    precision; re-evaluating the stencil on the float64 ``values`` gives a
    larger number dominated by representation rounding (eps*|u|/h^2).
    """

    def __init__(self, interval, values, residual, iterations):
        self.interval = (float(interval[0]), float(interval[1]))
        v = np.ascontiguousarray(values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("profile contains non-finite values")
        v.flags.writeable = False
        self.values = v
        self.n = len(v)
        self.dirichlet = (float(v[0]), float(v[-1]))
        self.residual = float(residual)
        self.iterations = int(iterations)
        # the grid's one-sided second-order edge closures
        slope = _g._diff1(v, self.h, 0, False)
        self.boundary_derivatives = (float(slope[0]), float(slope[-1]))

    @property
    def h(self) -> float:
        return (self.interval[1] - self.interval[0]) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.interval[0], self.interval[1], self.n)

    def sample(self, x) -> np.ndarray:
        return np.interp(x, self.nodes(), self.values)


# ---------------------------------------------------------------------------
# monotone iteration core


# damping of the rate extrapolation in _monotone_sweeps: the jump covers
# this share of the geometric tail that the settled rate predicts
THETA = 0.8

# two consecutive step ratios this close (relative) settle the rate
RATE_AGREEMENT = 0.01

# sweep budgets: the 1D float64 phase, its long-double polish, a 2D solve
SWEEPS_1D = 200000
SWEEPS_POLISH = 1000
SWEEPS_2D = 10000

SweepRun = namedtuple("SweepRun", "u sweeps update accepted rejected rate")


def _monotone_sweeps(sweep, u, lower, upper, ascending, done, max_iter,
                     slack, certify=None, judge=None):
    """The sub/supersolution sweep engine behind the 1D and 2D solvers.

    Before each sweep ``done(u, update)`` decides whether to stop (``update``
    is the max-norm of the last move, inf before the first); otherwise
    ``u = sweep(u, out)``, where ``out`` is None or a dead iterate of the
    run, in ``u``'s shape and dtype, that the sweep may write its result
    into; else it returns a new array.  Every step must go one way (up when
    ``ascending``) and keep lower <= u <= upper, both within ``slack``: a
    failure means the shift did not linearize f on the range, which is a
    solver defect and not something to iterate past.  Nor is a zero update
    while ``done`` is false: every later sweep would repeat it.  The
    checked step is then clamped to [lower, upper] in place, in the array
    ``sweep`` returned; in exact arithmetic it lies there already, so the
    clamp removes only rounding, which near an unstable state would grow
    sweep by sweep until it passed the slack.

    The ratio of the last two step max-norms is the observed rate, settled
    once two consecutive ratios agree within RATE_AGREEMENT.  Given a
    ``certify`` callback and a settled rate r < 1, the engine tries the
    damped geometric-tail jump (Aitken 1926) nxt + THETA*r/(1-r)*step from
    the plain sweep's result nxt, clamped to the near bound (lower
    ascending, upper descending).  The clamp keeps a start: the max of two
    subsolutions, or the min of two supersolutions, is one again, since the
    off-diagonal weights of the stencil are nonpositive.  It keeps the jump
    only if it stays on the near side of the far bound (<= upper ascending,
    >= lower descending) and
    ``certify`` accepts it as a start of the same iteration: a subsolution
    when ascending, a supersolution when descending.  From such a start the
    next plain step again goes one way and stays in the sandwich (Sattinger
    1972), so every check above keeps its meaning; the rate history starts
    over.  The update after a jump is the whole move from the previous
    iterate, so a jump never ends a run early.

    Each settled rate also goes to ``judge(rate)`` if given, which may end
    the run by raising NonConvergence.

    The engine makes two buffers on its first sweep and writes over them
    on every later one: the step, whose min and max give the direction
    check, the update and so the rate, and a scratch array that holds each
    side's sandwich gap in turn.  A jump is formed in the step buffer and
    keeps it if accepted; the next sweep then makes a new one.  The iterate
    a plain sweep replaces is dead, and goes to the next sweep as its
    ``out``, unless it is the start.  Besides those, the engine writes only
    into arrays that sweeps returned (the clamp, and each ``out``), never
    into ``lower``, ``upper`` or the start ``u``, which it returns
    unchanged if ``done`` stops the run before any sweep.

    Returns a :class:`SweepRun`: the iterate, the plain sweeps run, the last
    update, the accepted and rejected jumps, and the last settled rate (None
    if the rate never settled).
    """
    update = np.inf
    sweeps = accepted = rejected = 0
    last = ratio = rate = None
    step = scratch = spare = None  # made by the first sweeps, then reused
    while not done(u, update):
        if update == 0.0:
            raise NonConvergence("iteration stalled at sweep %d: the sweep "
                                 "returned its input unchanged" % sweeps)
        if sweeps >= max_iter:
            raise NonConvergence("no convergence in %d sweeps (last update "
                                 "%.3e)" % (max_iter, update))
        nxt = sweep(u, spare)
        step = np.subtract(nxt, u, out=step)
        low, high = float(step.min()), float(step.max())
        worst = low if ascending else high
        if (worst < -slack) if ascending else (worst > slack):
            raise NonConvergence("%s sweep lost monotonicity (worst step %.3e)"
                                 % ("ascending" if ascending else "descending",
                                    worst))
        scratch = np.subtract(lower, nxt, out=scratch)
        below = float(scratch.max())
        escape = max(below, float(np.subtract(nxt, upper, out=scratch).max()))
        if escape > slack:
            raise NonConvergence("iterate escaped the sub/supersolution "
                                 "sandwich by %.3e" % escape)
        np.minimum(np.maximum(nxt, lower, out=nxt), upper, out=nxt)
        sweeps += 1
        # max |step| exactly, since rounding to float is symmetric; abs
        # keeps a zero step's update +0.0
        norm = max(abs(low), abs(high))
        before, ratio = ratio, (norm / last if last else None)
        last = norm
        if (before is not None and ratio is not None
                and abs(ratio - before) <= RATE_AGREEMENT * ratio):
            rate = ratio
            if judge is not None:
                judge(rate)
            if certify is not None and rate < 1.0 and THETA > 0.0:
                # the jump is formed in the step buffer; a kept jump takes
                # the buffer with it, and the next sweep makes a new one
                cand = np.add(nxt, np.multiply(
                    step, THETA * rate / (1.0 - rate), out=step), out=step)
                # a wrong-way step the slack let through comes out of the
                # jump about r/(1-r) times larger, past the near bound
                if ascending:
                    np.maximum(cand, lower, out=cand)
                else:
                    np.minimum(cand, upper, out=cand)
                if (np.all(cand <= upper) if ascending
                        else np.all(cand >= lower)) and certify(cand):
                    accepted += 1
                    move = np.subtract(cand, u, out=scratch)
                    update = max(abs(float(move.min())),
                                 abs(float(move.max())))
                    u, step = cand, None
                    last = ratio = None
                    continue
                rejected += 1
        # the iterate nxt replaces is dead, unless it is the caller's start
        spare = u if sweeps > 1 else None
        u, update = nxt, norm
    return SweepRun(u, sweeps, update, accepted, rejected, rate)


def _defect(u, spacings, f):
    """Interior defect -Lap_h(u) - f(u), any rank, in the dtype of u."""
    return _g._neg_lap(u, spacings) - f(u[(slice(1, -1),) * u.ndim])


def _norm(a) -> float:
    """2-norm of ``a``, finite whenever the exact norm is.

    The sum of squares overflows for entries beyond ~1e154, as the folded
    ring of a spacing near 1e-150 gives; only then is the norm taken again
    on ``a`` scaled by its largest magnitude, so other solves pay nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        n = float(np.linalg.norm(a))
        if not math.isfinite(n):
            m = float(np.max(np.abs(a)))
            n = m * float(np.linalg.norm(a / m))
    return n


def _pocketfft_dst():
    """The orthonormal DST-I of scipy's pocketfft extension, loaded from its
    file without importing ``scipy`` or ``scipy.fft``.

    ``dst(x, 1, axes, 1, None, 1, None)`` is the call that
    ``scipy.fft.dstn(x, type=1, norm="ortho")`` makes (norm code 1 is
    "ortho"; no output array, one worker); the package import it skips
    would also load ``scipy.special``.  An output array ``out`` may be
    ``x`` itself: each line is transformed in a buffer of its own, so the
    transform in place gives the same bits.
    """
    root = os.path.dirname(importlib.util.find_spec("scipy").origin)
    base = os.path.join(root, "fft", "_pocketfft", "pypocketfft")
    path = next(base + s for s in importlib.machinery.EXTENSION_SUFFIXES
                if os.path.isfile(base + s))
    spec = importlib.util.spec_from_file_location("pypocketfft", path)
    ext = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ext)
    return lambda x, out=None: ext.dst(x, 1, tuple(range(x.ndim)), 1, out,
                                       1, None)


_DST = None  # the DST-I that _dst1 settled on in this process


def _dst1(x, out=None):
    """Orthonormal DST-I of ``x`` along every axis, as
    ``scipy.fft.dstn(x, type=1, norm="ortho")`` gives it, written into
    ``out`` (which may be ``x``) if given.

    The first call loads the transform straight from scipy's extension
    file and tries it on three points.  That layout is private to scipy, so
    any failure there (a missing file, another ABI, a changed signature)
    falls back to ``scipy.fft.dstn`` without a word.  A transform that
    returns wrong numbers quietly still meets the backward-error check of
    :meth:`_DirichletSolver.solve`.
    """
    global _DST
    if _DST is None:
        try:
            dst = _pocketfft_dst()
            dst(np.zeros(3))
        except Exception:  # whatever the private layout raises
            from scipy.fft import dstn

            def dst(a, out=None):
                t = dstn(a, type=1, norm="ortho")
                if out is None:
                    return t
                out[...] = t
                return out
        _DST = dst
    return _DST(x, out)


class _DirichletSolver:
    """Direct solve of (-Lap_h + shift) w = b on a box with Dirichlet data.

    The (2, -1, -1) Dirichlet stencil is diagonal in the DST-I basis along
    every axis (Buzbee, Golub & Nielson 1970), so a forward transform, a
    division by the eigenvalues and an inverse transform solve the system in
    any rank.  The solve runs in the float dtype of the right side it is
    given, with eigenvalues and spacings built in that dtype, and checks the
    normwise backward error of every solution: with A symmetric,
    ||A||_2 <= ||A||_inf = sum 4/h^2 + shift, so the check
    ||r|| <= 8 eps (||b|| + ||A||_inf ||w||) holds for any backward-stable
    solve at any spacing, where a bound on ||r|| / ||b|| alone does not (at
    h = 1e-3 such a solve leaves 8e-11 ||b||).  ``shape`` counts the nodes
    of the full box, boundary included.  A spacing whose h*h or 4/(h*h) is
    not positive and finite raises :class:`grid.GridError`; a right side
    that is not finite raises NonConvergence before the transforms.

    A solve allocates only the box it returns, and not even that when it
    is given an ``out``.  Each dtype keeps a workspace of two
    interior-sized arrays, made on its first solve: the folded right side,
    which both transforms and the eigenvalue division overwrite in place
    until it holds the solution, and the residual of the check.  Once the
    returned box holds the solution, the check's stencil writes over the
    first.  Every value comes from the same operations in the same order
    as when each step took a new array, so every bit is the same.
    """

    def __init__(self, shape, spacings, shift):
        if not 0.0 <= shift < np.inf:  # a custom f' can overflow the shift
            raise ValueError("shift must be finite and nonnegative")
        self.shape = tuple(int(n) for n in shape)
        self.spacings = tuple(float(h) for h in spacings)
        for h in self.spacings:  # h * h: h ** 2 raises OverflowError
            if not (0.0 < h * h < np.inf and 4.0 / (h * h) < np.inf):
                raise _g.GridError("grid spacing %g is out of range: h^2 and "
                                   "4/h^2 must be positive and finite" % h)
        self.shift = float(shift)
        self._eig = {}
        self._work = {}

    def solve(self, rhs_interior, dirichlet, out=None):
        """Full-box solution with the ring of ``dirichlet`` folded into the
        right side, in the float dtype of ``rhs_interior``: written into
        ``out`` if given (a full box in that dtype that overlaps neither
        argument), else a new array; never memory of the workspace."""
        dt = np.result_type(rhs_interior, 1.0)
        work = self._work.get(dt)
        if work is None:  # first solve in this dtype
            inner = [n - 2 for n in self.shape]
            work = self._work[dt] = (np.empty(inner, dt), np.empty(inner, dt))
        b, r = work
        np.copyto(b, rhs_interior)
        hs = [dt.type(h) for h in self.spacings]
        for axis, h in enumerate(hs):
            for end in (0, -1):
                side = [slice(None)] * b.ndim
                ring = [slice(1, -1)] * b.ndim
                side[axis] = ring[axis] = end
                b[tuple(side)] += dirichlet[tuple(ring)] / h ** 2
        bnorm = _norm(b)
        if not math.isfinite(bnorm):
            raise NonConvergence("the right side of the sine-transform solve "
                                 "is not finite: f(u) + shift*u overflowed")
        eig = self._eig.get(dt)
        if eig is None:  # first solve in this dtype
            # (2 sin(theta/2))^2 is 2 - 2 cos(theta) without the
            # cancellation that costs the low modes eps/theta^2 of accuracy
            pi = 4 * np.arctan(dt.type(1))
            axes = [np.square(2.0 * np.sin(np.arange(1, n - 1, dtype=dt) * pi
                                           / (2 * (n - 1)))) / h ** 2
                    for n, h in zip(self.shape, hs)]
            eig = self._eig[dt] = sum(np.ix_(*axes)) + dt.type(self.shift)
        w = _dst1(np.divide(_dst1(b, out=b), eig, out=b), out=b)
        wnorm = _norm(w)
        if not math.isfinite(wnorm):
            raise NonConvergence("the sine transform of a right side of "
                                 "%.3e overflowed" % bnorm)
        if out is None:
            full = np.array(dirichlet, dtype=dt)
        else:
            full = out
            np.copyto(full, dirichlet)
        full[(slice(1, -1),) * b.ndim] = w
        # residual of the unfolded system: the stencil sees the ring itself,
        # and writes over the solution, which the box now holds
        np.multiply(w, self.shift, out=r)
        np.subtract(rhs_interior, r, out=r)
        np.subtract(r, _g._neg_lap(full, hs, out=b), out=r)
        rnorm = _norm(r)
        anorm = sum(4.0 / h ** 2 for h in self.spacings) + self.shift
        if not rnorm <= 8.0 * np.finfo(dt).eps * (bnorm + anorm * wnorm):
            raise NonConvergence("sine-transform solve left a residual of "
                                 "%.3e against a right side of %.3e"
                                 % (rnorm, bnorm))
        return full


def _picard_1d(nl, h, start, lower, upper, bc, tol, ascending):
    """Shifted Picard iteration between verified bounds, in two phases.

    The shift is :func:`picard_shift` over [0, max|upper|].  Phase one runs
    in float64 until the sweep update drops below tol.  Phase two re-runs
    the same sweeps in extended precision until the measured defect of
    -u'' - f(u) is below tol as well: a float64 iterate cannot certify a
    defect much below eps*|u|/h^2 (a few 1e-10 at h = 1e-3), since rounding
    the exact solution to doubles already costs that much.  Both phases
    solve with the same sine transform, in the dtype of the iterate.
    Nonlinearity callables built from numpy ufuncs preserve the dtype, which
    is what makes the higher-precision f evaluations meaningful.
    """
    n = len(start)
    smax = float(np.max(np.abs(upper)))
    shift = picard_shift(nl, smax)
    slack = 1e-10 * (1.0 + smax)
    solver = _DirichletSolver((n,), (h,), shift)
    ring = np.r_[bc[0], np.zeros(n - 2), bc[1]]
    f = nl.f
    floor = 2.0 * float(np.finfo(np.longdouble).eps) * smax / (h * h)

    def sweep(u, out):
        # shift in the iterate's dtype keeps the right side in extended
        # precision even where f returns float64
        inner = u[1:-1]
        return solver.solve(f(inner) + u.dtype.type(shift) * inner, ring,
                            out)

    def defect(u):
        return float(np.max(np.abs(_defect(u, (u.dtype.type(h),), f))))

    def judge(rate):
        # rounding to long double moves each stencil value by up to
        # eps*|u|/2, so the polish cannot pass a tol below this floor: it
        # stalls, or churns at the rounding level, whatever the rate.  Phase
        # one stops at its first settled rate instead, after the sweeps
        # that would overflow have run
        if tol < floor:
            raise NonConvergence(
                "tol %.3e is below the rounding floor 2*eps*max|u|/h^2 = "
                "%.3e of the long-double defect, so the polish cannot pass "
                "it (settled update ratio %.6f)" % (tol, floor, rate))

    def polished(ul, update):
        # the floor above is only an estimate: a tol a few times over it can
        # still meet a sweep that returns its input, and the defect then
        # stays where rounding left it
        reached = defect(ul)
        if reached >= tol and update == 0.0:
            raise NonConvergence(
                "the long-double polish stalled at a defect of %.3e, above "
                "tol %.3e: the sweep returned its input unchanged, so "
                "rounding holds the defect there" % (reached, tol))
        return reached < tol

    u = np.array(start, dtype=float)
    u[0], u[-1] = bc
    first = _monotone_sweeps(sweep, u, lower, upper, ascending,
                             lambda u, update: update < tol, SWEEPS_1D, slack,
                             judge=judge)
    polish = _monotone_sweeps(
        sweep, first.u.astype(np.longdouble), lower, upper, ascending,
        polished, SWEEPS_POLISH, slack)
    ul = polish.u
    return (np.asarray(ul, dtype=float), defect(ul),
            first.sweeps + polish.sweeps)


def select_subsolution_amplitude(nl: Nonlinearity, rate: float) -> float:
    """Largest amplitude eps <= 1 with f(s) >= rate*s on all of (0, eps].

    Bisection against a dense sampling of the inequality; the admissible set
    is an interval (it only shrinks as eps grows) so bisection is valid.
    """
    s_unit = np.linspace(1.0 / 512, 1.0, 512)

    def admissible(eps):
        s = eps * s_unit
        return float(np.min(nl.f(s) - rate * s)) >= -1e-14

    if admissible(1.0):
        return 1.0
    lo = 1e-6
    if not admissible(lo):
        raise NoSubsolution(
            "f(s) never dominates %.6g*s near s=0 (f'(0) below the "
            "principal-eigenvalue threshold)" % rate)
    hi = 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def solve_strip_profile(nl: Nonlinearity, n: int = 2001, tol: float = 1e-10,
                        start: str = "sub") -> Profile:
    """Positive transverse profile on (-1, 1) with -u'' = f(u), u(+-1) = 0.

    The iteration ascends from the cosine subsolution eps*cos(pi x/2) (eps by
    the bisection rule with delta = 0.05) or, with start="super", descends
    from the parabolic supersolution M(1 - x^2)/2.  Both limits coincide when
    f(s)/s strictly decreases, which is the uniqueness test hook.
    """
    n = int(n)
    if n < 8:
        raise ValueError("need at least 8 nodes")
    delta = 0.05
    rate = np.pi ** 2 / 4.0 + delta ** 2
    eps = select_subsolution_amplitude(nl, rate)

    x = np.linspace(-1.0, 1.0, n)
    h = 2.0 / (n - 1)
    sub = eps * np.cos(0.5 * np.pi * x)
    sup = 0.5 * nl.bound_M * (1.0 - x ** 2)
    # the selected eps fits: bound_M >= f(eps) >= rate*eps with rate/2 > 1,
    # so sup >= eps*(1 - x^2) >= eps*cos(pi x/2).  The slack covers the
    # walls, where cos(+-pi/2) rounds to 6.1e-17, not 0
    if not np.all(sub <= sup + 1e-15):
        raise NoSubsolution("subsolution cannot be placed under supersolution")
    sub[0] = sub[-1] = 0.0

    if start == "sub":
        u0, ascending = sub, True
    elif start == "super":
        u0, ascending = sup, False
    else:
        raise ValueError("start must be 'sub' or 'super'")
    u, res, its = _picard_1d(nl, h, u0, sub, sup, (0.0, 0.0), tol, ascending)
    return Profile((-1.0, 1.0), u, res, its)


def solve_heteroclinic(nl: Nonlinearity, L: float = 20.0, n: int = 4001,
                       tol: float = 1e-10) -> Profile:
    """Increasing connection on [0, L] with -g'' = f(g), g(0)=0, g(L)=1.

    Requires a balanced double well (f(1) = 0 makes the constant 1 a
    supersolution; 0 is a subsolution).  Raises BadTruncation when the
    solved profile still moves between L-1 and L, i.e. the interval cut the
    transition layer.
    """
    L = float(L)
    n = int(n)
    if n < 8:
        raise ValueError("need at least 8 nodes")
    if L <= 1.0:
        raise BadTruncation("interval [0, %g] cannot hold the transition layer" % L)
    if abs(float(nl.f(1.0))) > 1e-12:
        raise ValueError("far-field state 1 must be an equilibrium: f(1)=%g"
                         % float(nl.f(1.0)))
    h = L / (n - 1)
    sub = np.zeros(n)
    sup = np.ones(n)
    u, res, its = _picard_1d(nl, h, sub, sub, sup, (0.0, 1.0), tol,
                             ascending=True)
    p = Profile((0.0, L), u, res, its)
    gap = abs(float(p.sample(L) - p.sample(L - 1.0)))
    if gap > 1e-6:
        raise BadTruncation(
            "profile still varies by %.3e over the last unit length; "
            "increase L" % gap)
    return p


# ---------------------------------------------------------------------------
# serialization


def save_profile(p: Profile, csv_path, json_path, extra=None) -> None:
    """Nodes and values as CSV; interval, boundary data and solve as JSON."""
    _ser.write_csv(csv_path, ["x", "value"], [p.nodes(), p.values])
    env = {
        "schema_version": _ser.SCHEMA_VERSION,
        "interval": list(p.interval),
        "n": p.n,
        "dirichlet": list(p.dirichlet),
        "boundary_slopes": list(p.boundary_derivatives),
        "residual": p.residual,
        "iterations": p.iterations,
    }
    if extra:
        env.update(extra)
    _ser.write_json(env, json_path)
