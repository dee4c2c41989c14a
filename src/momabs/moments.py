"""Moments of LTI systems and moment-matching reduced-order models.

A moment is the matrix C Pi (or Ups B), where Pi (Ups) solves a Sylvester
equation coupling the system with interpolation data (S, L) pairs
(respectively (Q, R)); equivalently, transfer-function values at the
interpolation points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    StateSpaceModel,
    as_matrix,
    _square,
    eigenvalues,
    pbh_observable,
    pbh_reachable,
    solve_sylvester,
    spectra_disjoint,
)

TWO_SIDED_COND_MAX = 1e10


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
    pi = solve_sylvester(sys.a, interp.s, -(sys.b @ interp.l))
    return DirectMomentSolution(pi=pi, moment=sys.c @ pi)


def moment_swapped(sys: StateSpaceModel, interp: SwappedInterpolant) -> SwappedMomentSolution:
    """Moment Ups b of ``sys`` at (q, r), with Ups solving q Ups = Ups a + r c."""
    if interp.r.shape[1] != sys.p:
        raise ValueError("interpolant input dimension does not match plant output")
    ups = solve_sylvester(interp.q, sys.a, interp.r @ sys.c)
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


def transfer_eval(sys: StateSpaceModel, s: complex, near_tol: float = 1e-8) -> np.ndarray:
    """Transfer-function value c (s I - a)^{-1} b, solved per column."""
    spec = eigenvalues(sys.a).eigenvalues
    if np.abs(spec - s).min() <= near_tol:
        raise ValueError(f"evaluation point {s} is numerically an eigenvalue of a")
    resolvent_rhs = np.linalg.solve(
        s * np.eye(sys.n) - sys.a.astype(complex), sys.b.astype(complex)
    )
    return sys.c @ resolvent_rhs


def tangential_mismatch_direct(
    full: StateSpaceModel, rom: StateSpaceModel, interp: DirectInterpolant
) -> float:
    """Largest relative transfer mismatch along the interpolant directions.

    At each eigenpair (lam, v) of s the moment pins the transfer value on
    the direction l v only; full-matrix equality at the points is a SISO
    special case.
    """
    vals, vecs = np.linalg.eig(interp.s)
    worst = 0.0
    for lam, v in zip(vals, vecs.T):
        d = interp.l.astype(complex) @ v
        tf_full = transfer_eval(full, complex(lam))
        diff = (tf_full - transfer_eval(rom, complex(lam))) @ d
        ref = tf_full @ d
        worst = max(worst, np.linalg.norm(diff) / max(1.0, np.linalg.norm(ref)))
    return float(worst)


def tangential_mismatch_swapped(
    full: StateSpaceModel, rom: StateSpaceModel, interp: SwappedInterpolant
) -> float:
    """Dual of :func:`tangential_mismatch_direct`: left directions w^T r from
    the left eigenpairs of q."""
    vals, vecs = np.linalg.eig(interp.q.T)
    worst = 0.0
    for lam, w in zip(vals, vecs.T):
        d = w @ interp.r.astype(complex)
        tf_full = transfer_eval(full, complex(lam))
        diff = d @ (tf_full - transfer_eval(rom, complex(lam)))
        ref = d @ tf_full
        worst = max(worst, np.linalg.norm(diff) / max(1.0, np.linalg.norm(ref)))
    return float(worst)


def limiting_direct(
    moment: DirectMomentSolution, interp: DirectInterpolant
) -> StateSpaceModel:
    """Autonomous limiting model (s, 0, C Pi) on the attractive subspace x = Pi w."""
    n_hat = interp.order
    return StateSpaceModel(
        a=interp.s, b=np.zeros((n_hat, interp.l.shape[0])), c=moment.moment
    )


def limiting_swapped(
    moment: SwappedMomentSolution, interp: SwappedInterpolant
) -> StateSpaceModel:
    """Limiting model (q, Ups b, I) for the error variable zeta = w + Ups x."""
    return StateSpaceModel(a=interp.q, b=moment.moment, c=np.eye(interp.order))
