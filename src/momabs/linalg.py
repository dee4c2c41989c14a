"""Dense real linear algebra for state-space problems, on plain numpy arrays.

:func:`eigenvalues`, :func:`spectra_disjoint`, :func:`solve_sylvester` and
:func:`solve_lyapunov` (O(n^3) each, gated by :func:`_cond_gate`, cheap first
from Frobenius norms, and :func:`_disjoint_gate`; the Sylvester solver forms no
inverse of a shifted matrix: an LU solve per shift, with sigma_min of it
proven by Cholesky in :func:`_certify`, once for all shifts right of the
numerical range of a dissipative matrix, else per shift; the Lyapunov solver
works in the eigenbasis of a_cl, with the sign iteration only as fallback),
:func:`place_poles`, and the PBH rank test (:func:`pbh_observable`), the one rule for observability,
reachability (:func:`pbh_reachable`), controllability and excitability (:func:`excitable`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

DISJOINT_TOL = 1e-8  # eigenvalues this close count as shared between two spectra
SPECTRUM_TOL = 1e-8  # Hurwitz: real parts below -SPECTRUM_TOL; eigenvalues closer are not simple
SYLVESTER_COND_MAX = 1e12
PLACE_RETRIES = 16
SIGN_MAX_ITER = 100  # scaled Newton sign steps; about 10 suffice in practice
SIGN_TOL = 1e-8  # ||A + I||_F / sqrt(n) after which one more step is taken

_memo_lock = threading.Lock()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting empty or non-finite input."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"{name} has a zero dimension: {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(v, name: str = "vector") -> np.ndarray:
    x = np.asarray(v, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _require_shapes(**fields) -> None:
    """Raise a ValueError naming the first field (value, shape) not of its shape; None passes."""
    for name, (value, shape) in fields.items():
        if value is not None and np.shape(value) != tuple(shape):
            what = f"a {shape[0]}-vector" if len(shape) == 1 else "x".join(map(str, shape))
            raise ValueError(f"{name} must be {what}, got {np.shape(value)}")


def _square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    return m


def rank_tol(m: np.ndarray, svals: np.ndarray) -> float:
    """Default numerical-rank tolerance: sigma_max * max(dim) * 1e-12."""
    smax = svals[0] if svals.size else 0.0
    return smax * max(m.shape) * 1e-12


def numerical_rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rank_tol(m, s)))


@dataclass(frozen=True)
class StateSpaceModel:
    """LTI model dx = a x + b u, y = c x.

    Also hosts abstract systems (F, G, H); fields keep the generic names.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = _square(self.a, "a")
        b = as_matrix(self.b, "b")
        c = as_matrix(self.c, "c")
        n = a.shape[0]
        if b.shape[0] != n:
            raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise ValueError(f"c has {c.shape[1]} cols, expected {n}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    all_simple: bool
    max_real_part: float

    def is_hurwitz(self) -> bool:
        return self.max_real_part < -SPECTRUM_TOL


def eigenvalues(m) -> SpectrumReport:
    """Spectrum of a square matrix with its simplicity and largest real part.

    ``all_simple`` is true iff the minimum pairwise eigenvalue distance
    exceeds SPECTRUM_TOL; the matrix is Hurwitz iff every real part is below
    -SPECTRUM_TOL.  The eigenvalues are sorted by real then imaginary part.
    """
    vals = _eig(np.linalg.eigvals, m)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    apart = np.abs(vals[:, None] - vals) + np.diag(np.full(vals.size, np.inf))  # the pairs i != j
    return SpectrumReport(vals, bool(apart.min() > SPECTRUM_TOL), float(vals.real.max()))


def _eig(solver, m):
    """solver (np.linalg.eig or eigvals) of a square finite m; failing, a ValueError."""
    try:
        return solver(_square(m, "matrix"))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc


def _memoized(memo: list, size: int, fn, *args) -> tuple:
    """fn(*args), a tuple of arrays made read-only, or the value it gave for
    arrays of the same shapes and bit patterns if that is among the last
    ``size`` kept in ``memo``.

    ``memo`` holds (read-only copies of the arguments, value) pairs, most
    recent last.  A lookup compares each argument with a kept copy through
    an unsigned-integer view of its bits, so it copies nothing and tells
    -0.0 from 0.0 (and one NaN payload from another)."""
    with _memo_lock:
        for i, (kept, value) in enumerate(memo):
            if all(map(_same_bits, kept, args)):
                memo.append(memo.pop(i))
                return value
    value = fn(*args)
    kept = tuple(x.copy(order="K") for x in args)  # in the layout of x, so lookups compare like strides
    for x in (*value, *kept):
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


def spectra_disjoint(m1, m2) -> bool:
    """True iff every eigenvalue pair across the two spectra is > DISJOINT_TOL apart."""
    return _apart(eigenvalues(m1).eigenvalues, eigenvalues(m2).eigenvalues)


def _apart(e1: np.ndarray, e2: np.ndarray) -> bool:
    """True iff every pair across the two eigenvalue lists is > DISJOINT_TOL apart."""
    return bool(np.abs(e1[:, None] - e2[None, :]).min() > DISJOINT_TOL)


def _disjoint_gate(tau: float, a: np.ndarray, shifts, refusal: str) -> float:
    """Refuse with ``refusal`` unless sigma(a) is more than DISJOINT_TOL from
    the points ``shifts`` (one per conjugate pair suffices: a real a has a
    conjugate-symmetric spectrum).  Return t = max(tau, 2 DISJOINT_TOL) when
    :func:`_certify` proves sigma_min(a - mu I) >= t at every shift (by one
    real proof for a dissipative a, else one per shift), which shows the gap
    without an eigensolve; otherwise the computed spectrum of a decides, as in
    :func:`spectra_disjoint`, and 0 is returned."""
    tau = max(tau, 2 * DISJOINT_TOL)  # an inf or nan tau tries no proof
    if np.isfinite(tau) and _certify(a, shifts, tau):
        return tau
    if not _apart(eigenvalues(a).eigenvalues, np.asarray(shifts)):
        raise ValueError(refusal)
    return 0.0


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve a X - X b = c by shifted solves in the eigenbasis of the smaller side.

    With b = v diag(mu) v^{-1} (b the smaller side or tied; a smaller a is
    solved through b^T X^T - X^T a^T = -c^T), column j of X v is
    (a - mu_j I)^{-1} (c v)_j from one LU solve per conjugate pair of shifts
    (:func:`_conjugate_fill`): O(k n^3) for an n x n a and a k x k b.  Refused
    by the gates of :func:`_shifted_solve` and :func:`_check_sylvester`."""
    a, b, c = _square(a, "a"), _square(b, "b"), as_matrix(c, "c")
    n, k = a.shape[0], b.shape[0]
    if c.shape != (n, k):
        raise ValueError(f"c must be {n}x{k}, got {c.shape}")
    flip = k > n
    shifted, small, rhs = (b.T, a.T, -c.T) if flip else (a, b, c)
    x = _from_eigenbasis(*_shifted_solve(shifted, small, lambda w: (rhs @ w).T))
    x = x.T if flip else x
    _check_sylvester(a, b, c, x)
    return x


def _check_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray) -> None:
    """Refuse unless ||a x - x b - c||_F <= 1e-10 max(1, ||x||_F)."""
    if (resid := np.linalg.norm(a @ x - x @ b - c)) > 1e-10 * max(1.0, np.linalg.norm(x)):
        raise ValueError(f"Sylvester residual {resid:.3e} exceeds tolerance")


def _shifted_solve(a: np.ndarray, b: np.ndarray, blocks) -> tuple:
    """(mu, v, y) over the eigenpairs (mu, v) of b: at the j-th mu with
    imag >= 0, y[j] = (a - mu_j I)^{-1} r_j for the right-hand sides r =
    blocks(w), w the eigenvectors there as columns (r_j = (c w)_j for the
    Sylvester equation a X - X b = c), from one LU solve.

    The solves pass :func:`_disjoint_gate` on a at tau = 2 scale /
    SYLVESTER_COND_MAX, scale = cond(v)^2 (||a||_F + max_j |mu_j|), which
    bounds cond(v)^2 max_j ||a - mu_j I||_2, then :func:`_cond_gate` on
    :func:`_svd_bound`, which bounds the Kronecker cond (exactly for a normal
    b; a defective b has cond(v) of order 1/eps or more).  A proven tau
    bounds it by SYLVESTER_COND_MAX / 2, without SVDs."""
    refusal = "sigma(a) and sigma(b) overlap: Sylvester equation has no unique solution"
    # b is real: eig gives mu in pair order, with exactly conjugate eigenvectors
    mu, v = np.linalg.eig(b)
    first = mu.imag >= 0
    shifts = mu[first]
    overlap = lambda tau: _disjoint_gate(tau, a, shifts, refusal)
    exact = lambda: _svd_bound(a, shifts, v)
    try:
        y = [np.linalg.solve(_shift(a, m), r) for m, r in zip(shifts, blocks(v[:, first]))]
    except np.linalg.LinAlgError:  # singular in working precision: the exact tests decide
        overlap(np.inf)
        _cond_gate("Sylvester", np.inf, exact)
        raise
    with np.errstate(all="ignore"):  # a defective b gives cond(v) = inf, so tau is not finite
        scale = np.linalg.cond(v) ** 2 * (np.linalg.norm(a) + np.abs(shifts).max())
        tau = 2 * scale / SYLVESTER_COND_MAX
    proven = overlap(tau)
    _cond_gate("Sylvester", scale / proven if proven else np.inf, exact)
    return mu, v, y


def _from_eigenbasis(mu: np.ndarray, v: np.ndarray, y) -> np.ndarray:
    """The real X with X v_j = y_j, given y_j where imag(mu_j) >= 0 (:func:`_conjugate_fill`)."""
    return np.linalg.solve(v.T, _conjugate_fill(mu, np.array(y))).T.real


def _certify(a: np.ndarray, shifts, tau: float) -> bool:
    """True only if sigma_min(a - mu I) >= tau, so dist(mu, sigma(a)) >= tau
    and ||(a - mu I)^{-1}||_2 <= 1/tau, is proven at every mu in ``shifts``.

    First one real proof for all: sigma_min(a - mu I) >= Re mu - lambda_max(h),
    h = (a + a^T)/2, as the numerical range of a lies in Re z <= lambda_max(h)
    (Trefethen & Embree 2005, ch. 17); so :func:`_definite` of (rho - tau -
    margin) I - h, rho = min Re mu, suffices, margin = 4 n gamma_{n+4} (max
    |a_ij| + |rho| + tau) covering the roundings of a + a^T and of the diagonal
    and the Cholesky error gamma_{n+1} tr.  Otherwise one proof per shift:
    G = (a - mu I)^H (a - mu I) = a^T a - Re mu (a + a^T) + |mu|^2 I + i Im mu
    (a - a^T), written from one a^T a, a + a^T and a - a^T, with margin =
    4 gamma_{2n+8} (||a||_F + sqrt(n) |mu|)^2 >= 4 gamma_{2n+8} tr G (complex
    constants) in G - (tau^2 + margin) I.  Both add (n + 4)^2 times the least
    normal double for underflow; a matrix past the double range fails."""
    n = a.shape[0]
    gamma = lambda k: k * 2.0**-53 / (1 - k * 2.0**-53)
    underflow = (n + 4) ** 2 * np.finfo(float).tiny
    rho = min(m.real for m in shifts)
    with np.errstate(all="ignore"):  # an overflowing matrix fails the proofs below
        sym = a + a.T
        margin = 4 * n * gamma(n + 4) * (np.abs(a).max() + abs(rho) + tau) + underflow
        if _definite(sym * -0.5, rho - tau - margin):
            return True
        ata, fro, skew = a.T @ a, np.linalg.norm(a), a - a.T
        g = np.empty((n, n), complex)
        for m in shifts:  # a real mu gives a real G
            if m.imag:
                np.subtract(ata, np.multiply(sym, m.real, out=g.real), out=g.real)
                np.multiply(skew, m.imag, out=g.imag)
            margin = 4 * gamma(2 * n + 8) * (fro + np.sqrt(n) * abs(m)) ** 2 + underflow
            if not _definite(g if m.imag else ata - m.real * sym, abs(m) ** 2 - tau**2 - margin):
                return False
    return True


def _definite(x: np.ndarray, shift: float) -> bool:
    """True iff a Cholesky factorization of the Hermitian x + shift I, formed
    in place, completes with a finite trace: then x + shift I >= -E, ||E||_2 <=
    gamma_{n+1} tr(x + shift I) / (1 - gamma_{n+1}) (Higham 2002, Thm 10.3; Rump 2006)."""
    x.flat[:: x.shape[0] + 1] += shift
    try:  # a NaN from an overflow can pass the factorization, but not this test
        return bool(np.isfinite(shift + np.linalg.cholesky(x).trace()))
    except np.linalg.LinAlgError:
        return False


def _shift(a: np.ndarray, m) -> np.ndarray:
    """a - m I, built in place on a copy in the dtype of the shift."""
    shifted = a.astype(np.result_type(a, m))
    shifted.flat[:: a.shape[0] + 1] -= m
    return shifted


def _svd_bound(a: np.ndarray, shifts: np.ndarray, v: np.ndarray) -> float:
    """cond(v)^2 max_j sigma_max(a - mu_j I) / min_j sigma_min(a - mu_j I)."""
    svals = np.array([np.linalg.svd(_shift(a, m), compute_uv=False)[[0, -1]] for m in shifts])
    with np.errstate(all="ignore"):
        return np.linalg.cond(v) ** 2 * svals[:, 0].max() / svals[:, 1].min()


def _cond_gate(system: str, cheap: float, exact) -> None:
    """Refuse unless the condition bound is at most SYLVESTER_COND_MAX.

    ``cheap`` is an upper bound on ``exact()``: when it passes, the system is
    accepted without calling ``exact``; otherwise ``exact()`` decides, and a
    refusal quotes it."""
    if cheap <= SYLVESTER_COND_MAX:
        return
    bound = exact()
    if not bound <= SYLVESTER_COND_MAX:
        raise ValueError(
            f"{system} system is ill conditioned (cond bound {bound:.12g} > {SYLVESTER_COND_MAX:g})"
        )


def _conjugate_fill(mu: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Values at all points of mu from ``values``, one per point with imag >= 0.

    mu must be in the pair order np.linalg.eig gives a real matrix: each point
    with imag < 0 directly follows its exact conjugate and takes the conjugate
    value.  Any other order, such as a sorted spectrum's, is refused."""
    first = mu.imag >= 0
    second = np.flatnonzero(~first)
    if second.size and (second[0] == 0 or np.any(mu[second] != mu[second - 1].conj())):
        raise ValueError("points are not in conjugate-pair order")
    out = values[np.cumsum(first) - 1]
    out[~first] = out[~first].conj()
    return out


def solve_lyapunov(a_cl, q) -> np.ndarray:
    """Solve a_cl^T W + W a_cl = -q for Hurwitz a_cl and symmetric PSD q.

    One eigendecomposition a_cl = v diag(e) v^{-1} gives W = Re(v^{-H} Y
    v^{-1}), Y_ij = -(v^H q v)_ij / (conj(e_i) + e_j).  The Kronecker matrix
    of the equation has the eigenvalues e_i + e_j and the eigenvector basis
    v^{-T} (x) v^{-T}, so 2 ||a_cl||_F (||v||_F ||v^{-1}||_F)^2 / min_ij |e_i
    + e_j| bounds its condition number from above.  When that bound exceeds
    SYLVESTER_COND_MAX (a defective a_cl gives inf), or W misses the
    residual check, :func:`_sign_lyapunov` decides.  W is symmetrized, its
    residual verified against 1e-10 * max(1, ||W||_F); it is positive
    definite whenever q is.
    """
    a_cl = _square(a_cl, "a_cl")
    return _lyapunov(a_cl, q, *_eig(np.linalg.eig, a_cl))


def _lyapunov(a_cl: np.ndarray, q, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`solve_lyapunov` for a square a_cl whose eigenpairs (e, v) the
    caller already has, such as (sigma(a + b k) + lam, v) for a_cl = a + b k + lam I."""
    q = _square(q, "q")
    if q.shape != a_cl.shape:
        raise ValueError("q must match a_cl in shape")
    if np.linalg.norm(q - q.T) > 1e-10 * max(1.0, np.linalg.norm(q)):
        raise ValueError("q must be symmetric")
    if e.real.max() >= 0:
        raise ValueError("a_cl is not Hurwitz")
    # sigma(a_cl^T) = sigma(a_cl) and sigma(-a_cl) = -sigma(a_cl)
    if (gap := np.abs(e[:, None] + e).min()) <= DISJOINT_TOL:
        raise ValueError(
            "sigma(a_cl^T) and sigma(-a_cl) overlap: Lyapunov equation has no unique solution"
        )
    with np.errstate(all="ignore"):  # a defective a_cl gives a (near) singular v: a huge, inf or nan bound
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            v_inv = np.full_like(v, np.inf)
        bound = 2 * np.linalg.norm(a_cl) * (np.linalg.norm(v) * np.linalg.norm(v_inv)) ** 2 / gap
    if bound <= SYLVESTER_COND_MAX:
        y = (v.conj().T @ q @ v) / -(e.conj()[:, None] + e)
        w = (v_inv.conj().T @ y @ v_inv).real
        w = 0.5 * (w + w.T)
        if np.linalg.norm(a_cl.T @ w + w @ a_cl + q) <= 1e-10 * max(1.0, np.linalg.norm(w)):
            return w
    return _sign_lyapunov(a_cl, q)


def _sign_lyapunov(a_cl: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The fallback of :func:`solve_lyapunov`: the scaled Newton sign
    iteration (Roberts 1980).  A <- (mu A + A^{-1}/mu)/2, mu =
    sqrt(||A^{-1}||_F/||A||_F), converges to sign(a_cl) = -I, and Q <- (mu Q +
    A^{-T} Q A^{-1}/mu)/2 to 2W; carried along, the identity gives H with
    a_cl^T H + H a_cl = -I, and 2 sqrt(n) ||a_cl||_2 ||H||_2 bounds the
    Kronecker cond (Hewer & Kenney 1988).  Refused when that bound, tried first
    with Frobenius norms (:func:`_cond_gate`), exceeds SYLVESTER_COND_MAX, when
    SIGN_MAX_ITER steps do not converge (as after a norm overflows), or when W
    misses the residual check."""
    n = a_cl.shape[0]
    eye = np.eye(n)
    a, qs = a_cl, np.stack([q, eye])
    with np.errstate(all="ignore"):  # an overflowing norm gives a nan iterate, which never converges
        for _ in range(SIGN_MAX_ITER):
            a_inv = np.linalg.inv(a)
            mu = np.sqrt(np.linalg.norm(a_inv) / np.linalg.norm(a))
            last = np.linalg.norm(a + eye) <= SIGN_TOL * np.sqrt(n)
            a = 0.5 * (mu * a + a_inv / mu)
            qs = 0.5 * (mu * qs + a_inv.T @ qs @ a_inv / mu)
            if last:
                break
        else:
            raise ValueError(f"sign iteration did not converge in {SIGN_MAX_ITER} steps")
    w, h = 0.25 * (qs + qs.transpose(0, 2, 1))
    with np.errstate(over="ignore"):  # a norm past the double range is inf: the exact tier decides
        cheap = 2 * np.sqrt(n) * np.linalg.norm(a_cl) * np.linalg.norm(h)
    _cond_gate("Lyapunov", cheap, lambda: 2 * np.sqrt(n) * np.linalg.norm(a_cl, 2) * np.linalg.norm(h, 2))
    resid = np.linalg.norm(a_cl.T @ w + w @ a_cl + q)
    if not resid <= 1e-10 * max(1.0, np.linalg.norm(w)):  # a nan W is refused
        raise ValueError(f"Lyapunov residual {resid:.3e} exceeds tolerance")
    return w


def pbh_observable(s, l) -> bool:
    """PBH observability of (s, l) (Hautus 1969): rank [s - lam I; l] = n at each
    eigenvalue lam of s.  A conjugate pair is tested once, at imag(lam) >= 0:
    the matrix at conj(lam) is the conjugate of the one at lam, of equal rank."""
    s, l = _square(s, "s"), as_matrix(l, "l")
    n = s.shape[0]
    if l.shape[1] != n:
        raise ValueError(f"l has {l.shape[1]} cols, expected {n}")
    lams = eigenvalues(s).eigenvalues
    return all(numerical_rank(np.vstack([_shift(s, lam), l])) == n for lam in lams[lams.imag >= 0])


def pbh_reachable(q, r) -> bool:
    """PBH reachability (controllability) of (q, r), dual of :func:`pbh_observable`."""
    q, r = _square(q, "q"), as_matrix(r, "r")
    if r.shape[0] != q.shape[0]:
        raise ValueError(f"r has {r.shape[0]} rows, expected {q.shape[0]}")
    return pbh_observable(q.T, r.T)


def excitable(s, w0) -> bool:
    """True iff w0 excites every mode of s: (s, w0) is reachable by :func:`pbh_reachable`."""
    s, w = _square(s, "s"), as_vector(w0, "w0")
    if w.size != s.shape[0]:
        raise ValueError(f"w0 has size {w.size}, expected {s.shape[0]}")
    return pbh_reachable(s, w[:, None])


def block_diag_spectrum(poles) -> np.ndarray:
    """Real block-diagonal matrix realizing a self-conjugate pole list.

    Complex poles must come in conjugate pairs; each pair maps to a 2x2
    rotation-scaling block [[re, im], [-im, re]].
    """
    remaining = list(poles)
    out = np.zeros((len(remaining),) * 2)
    i = 0
    while remaining:
        lam = complex(remaining.pop(0))
        if abs(lam.imag) < 1e-14:
            out[i, i] = lam.real
            i += 1
            continue
        conj = np.conjugate(lam)
        for j, other in enumerate(remaining):
            if abs(complex(other) - conj) < 1e-9:
                remaining.pop(j)
                break
        else:
            raise ValueError(f"pole {lam} has no conjugate partner")
        out[i : i + 2, i : i + 2] = [[lam.real, abs(lam.imag)], [-abs(lam.imag), lam.real]]
        i += 2
    return out


def place_poles(a, b, target, seed: int = 0) -> np.ndarray:
    """State-feedback gain K with sigma(a + b K) = sigma(target).

    Refuses an (a, b) that :func:`pbh_reachable` finds not controllable.
    Draws a random gain Kbar, solves a X - X target = -b Kbar, and sets
    K = Kbar X^{-1}; retries with a fresh Kbar, up to PLACE_RETRIES draws, if
    X is near singular.
    """
    a, b, target = _square(a, "a"), as_matrix(b, "b"), _square(target, "target")
    n, m = b.shape
    if a.shape[0] != n or target.shape[0] != n:
        raise ValueError("a, b, target dimensions are inconsistent")
    if not pbh_reachable(a, b):
        raise ValueError("(a, b) is not controllable")
    want = eigenvalues(target).eigenvalues
    if not _apart(eigenvalues(a).eigenvalues, want):  # spectra_disjoint(a, target)
        raise ValueError("target spectrum intersects sigma(a)")
    rng = np.random.default_rng(seed)
    want = np.sort_complex(want)
    for _ in range(PLACE_RETRIES):
        kbar = rng.standard_normal((m, n))
        x = solve_sylvester(a, target, -b @ kbar)
        if np.linalg.cond(x) > 1e10:
            continue
        k = kbar @ np.linalg.inv(x)
        got = np.sort_complex(eigenvalues(a + b @ k).eigenvalues)
        if _spectra_match(got, want, 1e-6):
            return k
    raise ValueError("pole placement failed within the retry budget")


def _spectra_match(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """Nearest-match pairing of two equally long spectra within tol per eigenvalue."""
    pool = list(got)
    for w in want:
        dists = [abs(g - w) for g in pool]
        i = int(np.argmin(dists))
        if dists[i] > tol:
            return False
        pool.pop(i)
    return True

