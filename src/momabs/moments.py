"""Moments of LTI systems and moment-matching reduced-order models.

A moment is the matrix C Pi (or Ups B), where Pi (Ups) solves a Sylvester
equation coupling the system with interpolation data (S, L) pairs
(respectively (Q, R)); equivalently, transfer-function values at the
interpolation points.  Ups solving q Ups = Ups a + r c is Pi^T for the dual
plant (a^T, c^T, b^T) at (q^T, r^T), whose transfer function is G^T
(Astolfi 2010), so every moment is solved and memoized as a direct one.

The last MOMENT_MEMO_SIZE solves are memoized by comparing (a, s, l, b)
bit for bit with kept copies (:func:`momabs.linalg._memoized`); c does not
enter Pi, so plants that differ only in c share one solve.  A moment is its
own interpolation data: at an eigenpair (mu, v) of s, Pi v = -(a - mu I)^{-1}
b l v, so C Pi v = G(mu) l v, and the tangential checks read the plant's
side off the moment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    StateSpaceModel,
    as_matrix,
    _conjugate_fill,
    _disjoint_gate,
    _lu_solve,
    _memoized,
    _square,
    pbh_observable,
    pbh_reachable,
    solve_sylvester,
    spectra_disjoint,
)

TWO_SIDED_COND_MAX = 1e10
MOMENT_MEMO_SIZE = 2  # a direct and a swapped moment; a run reuses its own for its err
_moments: list = []  # (read-only copies of the arguments of _solve, read-only (Pi,))


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
    pi = _moment(sys, interp)
    return DirectMomentSolution(pi=pi, moment=sys.c @ pi)


def moment_swapped(sys: StateSpaceModel, interp: SwappedInterpolant) -> SwappedMomentSolution:
    """Moment Ups b of ``sys`` at (q, r), with Ups solving q Ups = Ups a + r c."""
    ups = _moment(sys, interp)
    return SwappedMomentSolution(upsilon=ups, moment=ups @ sys.b)


def _moment(sys: StateSpaceModel, interp) -> np.ndarray:
    """Memoized Pi of ``sys`` at (s, l), or at (q, r) Ups, the transposed
    view of the dual plant's Pi."""
    if isinstance(interp, DirectInterpolant):
        if interp.l.shape[0] != sys.m:
            raise ValueError("interpolant output dimension does not match plant input")
        return _memoized(_moments, MOMENT_MEMO_SIZE, _solve, sys.a, interp.s, interp.l, sys.b)[0]
    if interp.r.shape[1] != sys.p:
        raise ValueError("interpolant input dimension does not match plant output")
    return _memoized(_moments, MOMENT_MEMO_SIZE, _solve, sys.a.T, interp.q.T, interp.r.T, sys.c.T)[0].T


def _solve(a, s, l, b) -> tuple:
    """(Pi,) with Pi solving Pi s = a Pi + b l, that is a Pi - Pi s = -(b l)."""
    return (solve_sylvester(a, s, -(b @ l)),)


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
    """Complex transfer-function value G(s) = -c (a - s I)^{-1} b from one LU
    solve, refused within DISJOINT_TOL of an eigenvalue of a by
    :func:`momabs.linalg._disjoint_gate`, also when the solve fails."""
    refusal = f"evaluation point {s} is numerically an eigenvalue of a"
    try:
        return -(sys.c @ _lu_solve(sys.a, complex(s), sys.b)[0])
    finally:
        _disjoint_gate(0.0, sys.a, [complex(s)], refusal)


def transfer_at(sys: StateSpaceModel, mu) -> np.ndarray:
    """Transfer values G(mu_j) stacked as (k, p, m), for points mu in the pair
    order of np.linalg.eig: each conjugate pair is solved once, at imag >= 0."""
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    return _conjugate_fill(mu, np.array([transfer_eval(sys, complex(point)) for point in mu[mu.imag >= 0]]))


def tangential_mismatch_direct(
    full: StateSpaceModel, rom: StateSpaceModel, interp: DirectInterpolant
) -> float:
    """Largest relative transfer mismatch along the interpolant directions.

    At each eigenpair (lam, v) of s the moment pins the transfer value on
    the direction l v only, C Pi v = G(lam) l v; full-matrix equality at the
    points is a SISO special case.  The plant's side is read off its
    memoized moment, so the check is refused as that moment is.
    """
    pinned = moment_direct(full, interp).moment
    mu, v = np.linalg.eig(interp.s)
    return _tangential_mismatch(pinned @ v, transfer_at(rom, mu), v, interp.l)


def tangential_mismatch_swapped(
    full: StateSpaceModel, rom: StateSpaceModel, interp: SwappedInterpolant
) -> float:
    """Dual of :func:`tangential_mismatch_direct`: at each left eigenpair
    (lam, w) of q the moment pins the transfer value along w^T r, w^T Ups b =
    w^T r G(lam): the direct check of the dual plant and ROM (transfer values
    G^T, Gr^T) at l = r^T."""
    pinned = moment_swapped(full, interp).moment
    mu, w = np.linalg.eig(interp.q.T)
    return _tangential_mismatch(pinned.T @ w, transfer_at(rom, mu).transpose(0, 2, 1), w, interp.r.T)


def _tangential_mismatch(pinned: np.ndarray, tf_rom: np.ndarray, v: np.ndarray, l: np.ndarray) -> float:
    """max_j ||pinned_j - Gr(mu_j) l v_j|| / max(1, ||pinned_j||), for the
    plant's pinned columns pinned_j = G(mu_j) l v_j and a (k, p, m) stack of
    the ROM's transfer values at the eigenpairs (mu_j, v_j)."""
    diff = np.linalg.norm(pinned - np.einsum("jpm,mj->pj", tf_rom, l @ v), axis=0)
    return float((diff / np.maximum(1.0, np.linalg.norm(pinned, axis=0))).max())
