"""Moments of LTI systems and moment-matching reduced-order models.

A moment is the matrix C Pi (or Ups B), where Pi (Ups) solves a Sylvester
equation coupling the system with interpolation data (S, L) pairs
(respectively (Q, R)); equivalently, transfer-function values at the
interpolation points.

The last MOMENT_MEMO_SIZE moment solves are memoized by comparing their
Sylvester data bit for bit with kept copies (:func:`momabs.linalg._memoized`).
A tangential check takes the plant side behind its moment solve, whose gates
certify each point clear of sigma(a), so the plant's G(mu) is one LU solve per
point (:func:`_plant_transfer_at`), not a self-certifying :func:`transfer_eval`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    StateSpaceModel,
    as_matrix,
    _conjugate_fill,
    _disjoint_gate,
    _inverse_solve,
    _memoized,
    _shift,
    _square,
    pbh_observable,
    pbh_reachable,
    solve_sylvester,
    spectra_disjoint,
)

TWO_SIDED_COND_MAX = 1e10
MOMENT_MEMO_SIZE = 2  # a direct and a swapped moment; a run reuses its own for its err
_moments: list = []  # (read-only copies of the Sylvester data (a, b, c), read-only solution)


@dataclass(frozen=True)
class DirectInterpolant:
    """Observable pair (s, l) driving the plant through a signal generator."""

    s: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        s = _square(self.s, "s")
        l = as_matrix(self.l, "l")
        if l.shape[1] != s.shape[0]:
            raise ValueError(f"l has {l.shape[1]} cols, expected {s.shape[0]}")
        if not pbh_observable(s, l):
            raise ValueError("(s, l) is not observable")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "l", l)

    @property
    def order(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class SwappedInterpolant:
    """Reachable pair (q, r) filtering the plant output."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = _square(self.q, "q")
        r = as_matrix(self.r, "r")
        if r.shape[0] != q.shape[0]:
            raise ValueError(f"r has {r.shape[0]} rows, expected {q.shape[0]}")
        if not pbh_reachable(q, r):
            raise ValueError("(q, r) is not reachable")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @property
    def order(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class DirectMomentSolution:
    pi: np.ndarray
    moment: np.ndarray


@dataclass(frozen=True)
class SwappedMomentSolution:
    upsilon: np.ndarray
    moment: np.ndarray


def moment_direct(sys: StateSpaceModel, interp: DirectInterpolant) -> DirectMomentSolution:
    """Moment C Pi of ``sys`` at (s, l), with Pi solving Pi s = a Pi + b l."""
    if interp.l.shape[0] != sys.m:
        raise ValueError("interpolant output dimension does not match plant input")
    # Pi s = a Pi + b l  <=>  a Pi - Pi s = -(b l)
    pi = _memoized(_moments, MOMENT_MEMO_SIZE, solve_sylvester, sys.a, interp.s, -(sys.b @ interp.l))
    return DirectMomentSolution(pi=pi, moment=sys.c @ pi)


def moment_swapped(sys: StateSpaceModel, interp: SwappedInterpolant) -> SwappedMomentSolution:
    """Moment Ups b of ``sys`` at (q, r), with Ups solving q Ups = Ups a + r c."""
    if interp.r.shape[1] != sys.p:
        raise ValueError("interpolant input dimension does not match plant output")
    ups = _memoized(_moments, MOMENT_MEMO_SIZE, solve_sylvester, interp.q, sys.a, interp.r @ sys.c)
    return SwappedMomentSolution(upsilon=ups, moment=ups @ sys.b)


def rom_direct(sys: StateSpaceModel, interp: DirectInterpolant, g_free) -> StateSpaceModel:
    """Reduced model (s - g l, g, C Pi) matching the moment of ``sys`` at (s, l).

    Valid for any g with sigma(s) disjoint from sigma(s - g l).
    """
    g = as_matrix(g_free, "g_free")
    if g.shape != (interp.order, sys.m):
        raise ValueError(f"g_free must be {interp.order}x{sys.m}, got {g.shape}")
    f = interp.s - g @ interp.l
    if not spectra_disjoint(interp.s, f):
        raise ValueError("sigma(s) intersects sigma(s - g l); moment matching fails")
    sol = moment_direct(sys, interp)
    return StateSpaceModel(a=f, b=g, c=sol.moment)


def rom_swapped(sys: StateSpaceModel, interp: SwappedInterpolant, h_free) -> StateSpaceModel:
    """Reduced model (q - r h, Ups b, h) matching the moment of ``sys`` at (q, r)."""
    h = as_matrix(h_free, "h_free")
    if h.shape != (sys.p, interp.order):
        raise ValueError(f"h_free must be {sys.p}x{interp.order}, got {h.shape}")
    f = interp.q - interp.r @ h
    if not spectra_disjoint(f, interp.q):
        raise ValueError("sigma(q - r h) intersects sigma(q); moment matching fails")
    sol = moment_swapped(sys, interp)
    return StateSpaceModel(a=f, b=sol.moment, c=h)


def rom_two_sided(
    sys: StateSpaceModel, di: DirectInterpolant, si: SwappedInterpolant
) -> StateSpaceModel:
    """Single reduced model matching the moments at (s, l) and (q, r) jointly.

    Uses g = (Ups Pi)^{-1} Ups b in the direct family; requires Ups Pi to
    be well conditioned.
    """
    if not spectra_disjoint(di.s, si.q):
        raise ValueError("sigma(s) and sigma(q) must be disjoint")
    dsol = moment_direct(sys, di)
    ssol = moment_swapped(sys, si)
    prod = ssol.upsilon @ dsol.pi
    if np.linalg.cond(prod) > TWO_SIDED_COND_MAX:
        raise ValueError("Ups Pi is singular or too ill conditioned for two-sided matching")
    g = np.linalg.solve(prod, ssol.moment)
    f = di.s - g @ di.l
    if not spectra_disjoint(di.s, f):
        raise ValueError("two-sided g makes sigma(s - g l) intersect sigma(s)")
    return StateSpaceModel(a=f, b=g, c=dsol.moment)


def transfer_eval(sys: StateSpaceModel, s: complex) -> np.ndarray:
    """Complex transfer-function value G(s) = -c (a - s I)^{-1} b, refused
    within DISJOINT_TOL of an eigenvalue of a.

    As dist(s, sigma(a)) >= 1/||(a - s I)^{-1}||_2, an inverse with
    sqrt(||.||_1 ||.||_inf) DISJOINT_TOL < 1 proves s clear of sigma(a); only
    otherwise, or when the inverse cannot be formed, is a eigensolved to decide
    (:func:`momabs.linalg._disjoint_gate`)."""
    refusal = f"evaluation point {s} is numerically an eigenvalue of a"
    try:
        y, _, inv_norm = _inverse_solve(sys.a, complex(s), sys.b)
    except np.linalg.LinAlgError:  # singular in working precision: the spectrum decides
        _disjoint_gate(np.inf, sys.a, s, refusal)
        raise
    _disjoint_gate(inv_norm, sys.a, s, refusal)
    return -(sys.c @ y)


def transfer_at(sys: StateSpaceModel, mu) -> np.ndarray:
    """Transfer values G(mu_j) stacked as (k, p, m), for points mu in the pair
    order of np.linalg.eig: each conjugate pair is solved once, at imag >= 0."""
    return _at_upper_points(mu, lambda point: transfer_eval(sys, point))


def _plant_transfer_at(sys: StateSpaceModel, interp, mu) -> np.ndarray:
    """:func:`transfer_at` for the plant of a moment at ``interp`` (direct or
    swapped), with mu the spectrum of its s (or q).

    The moment solve runs first, a memo hit after ``rom_*``; its gates have
    proved each point clear of sigma(a) with a - mu I inside the cond bound,
    or refused.  So each value is -c (a - mu I)^{-1} b by one LU solve."""
    (moment_direct if isinstance(interp, DirectInterpolant) else moment_swapped)(sys, interp)
    return _at_upper_points(mu, lambda point: -(sys.c @ np.linalg.solve(_shift(sys.a, point), sys.b)))


def _at_upper_points(mu, value) -> np.ndarray:
    """value(mu_j) stacked for points mu in eig pair order, called only at
    imag >= 0; each lower member takes its partner's conjugate."""
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    return _conjugate_fill(mu, np.array([value(complex(point)) for point in mu[mu.imag >= 0]]))


def tangential_mismatch_direct(
    full: StateSpaceModel, rom: StateSpaceModel, interp: DirectInterpolant
) -> float:
    """Largest relative transfer mismatch along the interpolant directions.

    At each eigenpair (lam, v) of s the moment pins the transfer value on
    the direction l v only; full-matrix equality at the points is a SISO
    special case.  Refused as the moment of ``full`` at ``interp`` is.
    """
    vals, vecs = np.linalg.eig(interp.s)
    d = (interp.l @ vecs).T[:, :, None]  # direction l v per eigenpair
    tf_full = _plant_transfer_at(full, interp, vals)
    return _relative_mismatch(tf_full, transfer_at(rom, vals), lambda g: g @ d)


def tangential_mismatch_swapped(
    full: StateSpaceModel, rom: StateSpaceModel, interp: SwappedInterpolant
) -> float:
    """Dual of :func:`tangential_mismatch_direct`: at each left eigenpair
    (lam, w) of q the moment pins the transfer value along w^T r."""
    vals, vecs = np.linalg.eig(interp.q.T)
    d = (vecs.T @ interp.r)[:, None, :]  # direction w^T r per eigenpair
    tf_full = _plant_transfer_at(full, interp, vals)
    return _relative_mismatch(tf_full, transfer_at(rom, vals), lambda g: d @ g)


def _relative_mismatch(tf_full: np.ndarray, tf_rom: np.ndarray, along) -> float:
    """max_j ||along(G(mu_j) - Gr(mu_j))|| / max(1, ||along(G(mu_j))||), for
    (k, p, m) stacks of transfer values and ``along`` projecting them."""
    diff = np.linalg.norm(along(tf_full - tf_rom), axis=(1, 2))
    ref = np.linalg.norm(along(tf_full), axis=(1, 2))
    return float((diff / np.maximum(1.0, ref)).max())
