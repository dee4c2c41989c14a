"""Moments of LTI systems and moment-matching reduced-order models.

A moment is the matrix C Pi (or Ups B), where Pi (Ups) solves a Sylvester
equation coupling the system with interpolation data (S, L) pairs
(respectively (Q, R)); equivalently, transfer-function values at the
interpolation points.  Ups solving q Ups = Ups a + r c is Pi^T for the dual
plant (a^T, c^T, b^T) at (q^T, r^T), whose transfer function is G^T
(Astolfi 2010), so every moment is solved and memoized as a direct one.

The last MOMENT_MEMO_SIZE solves are memoized by comparing (a, s, l, b, c)
bit for bit with kept copies (:func:`momabs.linalg._memoized`), next to the
plant's G(mu) at the interpolation points: the solve's gated shifted LU
solves, which take the columns of b as well, give it without another solve,
and the tangential checks read it from there.
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
_moments: list = []  # (read-only copies of the arguments of _solve, read-only (Pi, mu, v, G))


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
    pi = _moment(sys, interp)[0]
    return DirectMomentSolution(pi=pi, moment=sys.c @ pi)


def moment_swapped(sys: StateSpaceModel, interp: SwappedInterpolant) -> SwappedMomentSolution:
    """Moment Ups b of ``sys`` at (q, r), with Ups solving q Ups = Ups a + r c."""
    ups = _moment(sys, interp)[0]
    return SwappedMomentSolution(upsilon=ups, moment=ups @ sys.b)


def _moment(sys: StateSpaceModel, interp) -> tuple:
    """Memoized (X, mu, v, G) for the moment of ``sys`` at ``interp``: X is Pi
    (Ups), (mu, v) are the eigenpairs of s (of q^T) in np.linalg.eig's pair
    order, and G[j] = -c (a - mu_j I)^{-1} b is the plant's transfer value.
    For (q, r), Ups and G are transposed views of the dual plant's Pi and G."""
    if isinstance(interp, DirectInterpolant):
        if interp.l.shape[0] != sys.m:
            raise ValueError("interpolant output dimension does not match plant input")
        return _memoized(_moments, MOMENT_MEMO_SIZE, _solve, sys.a, interp.s, interp.l, sys.b, sys.c)
    if interp.r.shape[1] != sys.p:
        raise ValueError("interpolant input dimension does not match plant output")
    dual = (sys.a.T, interp.q.T, interp.r.T, sys.c.T, sys.b.T)
    pi, mu, v, g = _memoized(_moments, MOMENT_MEMO_SIZE, _solve, *dual)
    return pi.T, mu, v, g.transpose(0, 2, 1)


def _solve(a, s, l, b, c) -> tuple:
    """Pi solving Pi s = a Pi + b l, with G at eig(s) from the LU solves of
    a - mu I unless s is larger than the plant."""
    rhs = -(b @ l)  # Pi s = a Pi + b l  <=>  a Pi - Pi s = -(b l)
    if s.shape[0] > a.shape[0]:
        mu, v = np.linalg.eig(s)
        return solve_sylvester(a, s, rhs), mu, v, transfer_at(StateSpaceModel(a=a, b=b, c=c), mu)
    pi, mu, v, x = solve_sylvester(a, s, rhs, extra=b)
    return pi, mu, v, _conjugate_fill(mu, -(c @ x))


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
        return -(sys.c @ _lu_solve(sys.a, complex(s), None, sys.b)[1])
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
    the direction l v only; full-matrix equality at the points is a SISO
    special case.  The plant's values come from its memoized moment, so the
    check is refused as that moment is.
    """
    _, mu, v, tf_full = _moment(full, interp)
    return _tangential_mismatch(tf_full, transfer_at(rom, mu), v, interp.l)


def tangential_mismatch_swapped(
    full: StateSpaceModel, rom: StateSpaceModel, interp: SwappedInterpolant
) -> float:
    """Dual of :func:`tangential_mismatch_direct`: at each left eigenpair
    (lam, w) of q the moment pins the transfer value along w^T r: the direct
    check of the dual plant and ROM (transfer values G^T, Gr^T) at l = r^T."""
    _, mu, w, tf_full = _moment(full, interp)
    dual = lambda g: g.transpose(0, 2, 1)
    return _tangential_mismatch(dual(tf_full), dual(transfer_at(rom, mu)), w, interp.r.T)


def _tangential_mismatch(tf_full: np.ndarray, tf_rom: np.ndarray, v: np.ndarray, l: np.ndarray) -> float:
    """max_j ||(G(mu_j) - Gr(mu_j)) l v_j|| / max(1, ||G(mu_j) l v_j||), for
    (k, p, m) stacks of transfer values at the eigenpairs (mu_j, v_j)."""
    d = (l @ v).T[:, :, None]  # direction l v per eigenpair
    diff = np.linalg.norm((tf_full - tf_rom) @ d, axis=(1, 2))
    ref = np.linalg.norm(tf_full @ d, axis=(1, 2))
    return float((diff / np.maximum(1.0, ref)).max())
