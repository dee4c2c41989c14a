"""Moments of LTI systems and moment-matching reduced-order models.

A moment is C Pi, Pi s = a Pi + b l, or Ups b, q Ups = Ups a + r c: Ups is Pi^T
of the dual plant (a^T, c^T, b^T) at (q^T, r^T), whose transfer function is
G^T (Astolfi 2010), so every moment is solved as a direct one, and the last
MOMENT_MEMO_SIZE kept by :func:`_memoized` on (a, s, l, b).  At an eigenpair
(mu, v) of s, C Pi v = G(mu) l v, so the tangential checks read the plant's
side off the moment, at the eigenpairs with imag mu >= 0: for real data the
other member of a pair repeats the check conjugated.  At a Jordan block of s
the moment holds derivatives of G as well.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .linalg import (
    StateSpaceModel,
    as_matrix,
    _disjoint_gate,
    _norm,
    _require_shapes,
    _shift,
    _square,
    pbh_observable,
    pbh_reachable,
    solve_sylvester,
    spectra_disjoint,
)

TWO_SIDED_COND_MAX = 1e10
MOMENT_MEMO_SIZE = 2  # a direct and a swapped moment; a run reuses its own for its err
_moments: list = []  # (read-only copies of the arguments of _solve, read-only Pi)
_memo_lock = threading.Lock()


@dataclass(frozen=True)
class DirectInterpolant:
    """Observable pair (s, l) driving the plant through a signal generator."""

    s: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        s = _square(self.s, "s")
        l = as_matrix(self.l, "l")
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
        _require_shapes(l=(interp.l, (sys.m, interp.order)))
        return _memoized(_moments, MOMENT_MEMO_SIZE, _solve, sys.a, interp.s, interp.l, sys.b)
    _require_shapes(r=(interp.r, (interp.order, sys.p)))
    return _memoized(_moments, MOMENT_MEMO_SIZE, _solve, sys.a.T, interp.q.T, interp.r.T, sys.c.T).T


def _solve(a, s, l, b) -> np.ndarray:
    """Pi solving Pi s = a Pi + b l, that is a Pi - Pi s = -(b l)."""
    return solve_sylvester(a, s, -(b @ l))


def _memoized(memo: list, size: int, fn, *args) -> np.ndarray:
    """fn(*args), an array made read-only, or the one it gave for arrays of
    the same shapes and bit patterns (:func:`_same_bits`, which copies
    nothing and tells -0.0 from 0.0) among the last ``size`` kept in ``memo``,
    a list of (read-only argument copies, value), most recent last."""
    with _memo_lock:
        for i, (kept, value) in enumerate(memo):
            if all(map(_same_bits, kept, args)):
                memo.append(memo.pop(i))
                return value
    value = fn(*args)
    kept = tuple(x.copy(order="K") for x in args)  # in the layout of x, so lookups compare like strides
    for x in (value, *kept):
        x.flags.writeable = False
    with _memo_lock:
        memo.append((kept, value))
        del memo[:-size]
    return value


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """True iff x and y have the same dtype, shape and bit pattern."""
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    bits = np.dtype(f"u{x.itemsize}")
    return bool(np.array_equal(x.view(bits), y.view(bits)))


def rom_direct(sys: StateSpaceModel, interp: DirectInterpolant, g_free) -> StateSpaceModel:
    """Reduced model (s - g l, g, C Pi) matching the moment of ``sys`` at (s, l).

    Valid for any g with sigma(s) disjoint from sigma(s - g l).
    """
    g = as_matrix(g_free, "g_free")
    _require_shapes(g_free=(g, (interp.order, sys.m)))
    f = interp.s - g @ interp.l
    if not spectra_disjoint(interp.s, f):
        raise ValueError("sigma(s) intersects sigma(s - g l); moment matching fails")
    sol = moment_direct(sys, interp)
    return StateSpaceModel(a=f, b=g, c=sol.moment)


def rom_swapped(sys: StateSpaceModel, interp: SwappedInterpolant, h_free) -> StateSpaceModel:
    """Reduced model (q - r h, Ups b, h) matching the moment of ``sys`` at (q, r)."""
    h = as_matrix(h_free, "h_free")
    _require_shapes(h_free=(h, (sys.p, interp.order)))
    f = interp.q - interp.r @ h
    if not spectra_disjoint(f, interp.q):
        raise ValueError("sigma(q - r h) intersects sigma(q); moment matching fails")
    sol = moment_swapped(sys, interp)
    return StateSpaceModel(a=f, b=sol.moment, c=h)


def rom_two_sided(
    sys: StateSpaceModel, di: DirectInterpolant, si: SwappedInterpolant
) -> StateSpaceModel:
    """Single reduced model matching the moments at (s, l) and (q, r) jointly.

    Uses g = (Ups Pi)^{-1} Ups b in the direct family; requires s and q of
    one order, so that Ups Pi is square, and Ups Pi well conditioned.
    """
    if di.s.shape != si.q.shape:
        raise ValueError(f"s has order {di.s.shape[0]} and q order {si.q.shape[0]}; two-sided matching needs one")
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
        return -(sys.c @ np.linalg.solve(_shift(sys.a, complex(s)), sys.b))
    finally:
        _disjoint_gate(0.0, sys.a, [complex(s)], refusal)


def transfer_at(sys: StateSpaceModel, mu) -> np.ndarray:
    """Transfer values G(mu_j) stacked as (k, p, m), at the points mu in their order."""
    return np.array([transfer_eval(sys, complex(point)) for point in np.asarray(mu, dtype=complex).reshape(-1)])


def tangential_mismatch_direct(
    full: StateSpaceModel, rom: StateSpaceModel, interp: DirectInterpolant
) -> float:
    """Largest relative transfer mismatch along the interpolant directions.

    At each eigenpair (lam, v) of s the moment pins the transfer value on
    the direction l v only, C Pi v = G(lam) l v; full-matrix equality at the
    points is a SISO special case.  The plant's side is read off its
    memoized moment, so the check is refused as that moment is.
    """
    return _tangential_mismatch(moment_direct(full, interp).moment, rom, interp.s, interp.l)


def tangential_mismatch_swapped(
    full: StateSpaceModel, rom: StateSpaceModel, interp: SwappedInterpolant
) -> float:
    """Dual of :func:`tangential_mismatch_direct`: at each left eigenpair
    (lam, w) of q the moment pins the transfer value along w^T r, w^T Ups b =
    w^T r G(lam): the direct check of the dual plant and ROM (transfer values
    G^T, Gr^T) at l = r^T."""
    return _tangential_mismatch(moment_swapped(full, interp).moment.T, rom, interp.q.T, interp.r.T, dual=True)


def _tangential_mismatch(
    moment: np.ndarray, rom: StateSpaceModel, s: np.ndarray, l: np.ndarray, dual: bool = False
) -> float:
    """max_j ||pinned_j - Gr(mu_j) l v_j|| / max(1, ||pinned_j||) over the
    eigenpairs (mu_j, v_j) of s with imag mu_j >= 0, for the plant's pinned
    columns pinned_j = moment v_j = G(mu_j) l v_j and the ROM's transfer
    values Gr, transposed for a ``dual`` check."""
    mu, v = np.linalg.eig(s)
    mu, v = mu[mu.imag >= 0], v[:, mu.imag >= 0]
    tf_rom, pinned = transfer_at(rom, mu), moment @ v
    diff = _norm(pinned - np.einsum("jmp,mj->pj" if dual else "jpm,mj->pj", tf_rom, l @ v), axis=0)
    return float((diff / np.maximum(1.0, _norm(pinned, axis=0))).max())
