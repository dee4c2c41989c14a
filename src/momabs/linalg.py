"""Dense real linear algebra for state-space problems.

Spectra, rank tests, Sylvester/Lyapunov solvers, PBH and excitability
tests, and pole placement, on plain numpy arrays.  The Sylvester solver
works in the eigenbasis of the smaller side, at O(k n^3) for an order-n
plant and an order-k interpolation side, and solves each conjugate pair of
shifts once; the Lyapunov solver runs the scaled matrix-sign iteration at
O(n^3).  Both stay practical for n in the hundreds.  Neither forms the
n^2 x n^2 Kronecker matrix: each bounds its condition number from above,
refuses the system when the bound exceeds SYLVESTER_COND_MAX, and verifies
its residual.

Spectra are memoized by content: :func:`eigenvalues` keeps the sorted
spectra of the last SPECTRUM_MEMO_SIZE distinct matrices, keyed by shape
and a hash of the bytes, so the one plant that a moment solve, its
disjointness check and each transfer evaluation all need is eigensolved
once.  A matrix changed in place, or a transposed view, hashes to a new
key.  The memoized arrays are read-only.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

DISJOINT_TOL = 1e-8
SYLVESTER_COND_MAX = 1e12
PLACE_RETRIES = 16
SIGN_MAX_ITER = 100  # scaled Newton sign steps; about 10 suffice in practice
SIGN_TOL = 1e-8  # ||A + I||_F / sqrt(n) after which one more step is taken
SPECTRUM_MEMO_SIZE = 4  # enough for a plant, its interpolant and two reduced models

_spectra: OrderedDict = OrderedDict()  # (shape, blake2b digest) -> sorted eigenvalues
_spectra_lock = threading.Lock()


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


def _square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    return m


def rank_tol(m: np.ndarray, svals: np.ndarray) -> float:
    """Default numerical-rank tolerance: sigma_max * max(dim) * 1e-12."""
    smax = svals[0] if svals.size else 0.0
    return smax * max(m.shape) * 1e-12


def numerical_rank(m: np.ndarray, tol: float | None = None) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if tol is None:
        tol = rank_tol(m, s)
    return int(np.sum(s > tol))


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

    def check_full_rank_maps(self) -> None:
        """Enforce rank(b) = m and rank(c) = p."""
        if numerical_rank(self.b) != self.m:
            raise ValueError("input map b is not full column rank")
        if numerical_rank(self.c) != self.p:
            raise ValueError("output map c is not full row rank")


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    all_simple: bool
    max_real_part: float
    classification: tuple[str, ...] = field(default=())

    def is_hurwitz(self) -> bool:
        return all(c == "negative" for c in self.classification)

    def on_imaginary_axis(self) -> bool:
        return all(c == "zero" for c in self.classification)


def eigenvalues(m, zero_tol: float = 1e-8, simple_tol: float = 1e-8) -> SpectrumReport:
    """Spectrum of a square matrix with simplicity and sign classification.

    ``all_simple`` is true iff the minimum pairwise eigenvalue distance
    exceeds ``simple_tol``; real parts within ``zero_tol`` of zero are
    classified as "zero".  The eigenvalues, sorted by real then imaginary
    part, come from a memo of the last SPECTRUM_MEMO_SIZE distinct matrices
    keyed by shape and content hash, and are read-only; the report itself
    is built per call.
    """
    vals = _sorted_spectrum(_square(m, "matrix"))
    n = vals.size
    all_simple = True
    if n > 1:
        diff = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(diff, np.inf)
        all_simple = bool(diff.min() > simple_tol)
    labels = []
    for v in vals:
        if v.real < -zero_tol:
            labels.append("negative")
        elif v.real > zero_tol:
            labels.append("positive")
        else:
            labels.append("zero")
    return SpectrumReport(
        eigenvalues=vals,
        all_simple=all_simple,
        max_real_part=float(vals.real.max()),
        classification=tuple(labels),
    )


def _sorted_spectrum(a: np.ndarray) -> np.ndarray:
    """Read-only eigenvalues of a, sorted by real then imaginary part, memoized by content."""
    key = (a.shape, hashlib.blake2b(np.ascontiguousarray(a)).digest())
    with _spectra_lock:
        vals = _spectra.get(key)
        if vals is not None:
            _spectra.move_to_end(key)
            return vals
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc
    vals = vals[np.lexsort((vals.imag, vals.real))]
    vals.flags.writeable = False
    with _spectra_lock:
        _spectra[key] = vals
        while len(_spectra) > SPECTRUM_MEMO_SIZE:
            _spectra.popitem(last=False)
    return vals


def spectra_disjoint(m1, m2, tol: float = DISJOINT_TOL) -> bool:
    """True iff every eigenvalue pair across the two spectra is > tol apart."""
    e1 = eigenvalues(m1).eigenvalues
    e2 = eigenvalues(m2).eigenvalues
    dist = np.abs(e1[:, None] - e2[None, :])
    return bool(dist.min() > tol)


def solve_sylvester(a, b, c, disjoint_tol: float = DISJOINT_TOL) -> np.ndarray:
    """Solve a X - X b = c by shifted solves in the eigenbasis of the smaller side.

    Requires disjoint spectra sigma(a) and sigma(b) for uniqueness.  With
    b = v diag(mu) v^{-1} (b the smaller side; a tie diagonalises b, and a
    smaller a is handled through the transposed equation
    b^T X^T - X^T a^T = -c^T), column j of X v solves
    (a - mu_j I) y_j = (c v)_j, so the cost is O(k n^3) for an n x n a
    and a k x k b.

    The Kronecker matrix K of the equation factors as
    P blockdiag(a - mu_j I) P^{-1} with P = v^{-T} (x) I, so
    cond(v)^2 max_j sigma_max(a - mu_j I) / min_j sigma_min(a - mu_j I)
    bounds cond(K) from above, with equality for a normal smaller side.
    The system is refused when this bound exceeds SYLVESTER_COND_MAX.  A
    defective smaller side (a Jordan block, as for derivative moments) has
    no eigenvector basis: cond(v) comes out infinite or of order 1/eps, so
    such a system is refused although its solution is unique.  The residual
    is verified against 1e-10 * max(1, ||X||_F).

    The equation is real, so a complex pair (mu, conj(mu)) of the smaller
    side has conjugate eigenvectors and conjugate shifted solutions: only
    the member with imag(mu) >= 0 is factored and solved, and its partner
    takes the conjugate.  sigma(a - conj(mu) I) = sigma(a - mu I), so the
    bound is the same as over all shifts.
    """
    a = _square(a, "a")
    b = _square(b, "b")
    c = as_matrix(c, "c")
    n, k = a.shape[0], b.shape[0]
    if c.shape != (n, k):
        raise ValueError(f"c must be {n}x{k}, got {c.shape}")
    if not spectra_disjoint(a, b, disjoint_tol):
        raise ValueError("sigma(a) and sigma(b) overlap: Sylvester equation has no unique solution")
    x = _shifted_solve(a, b, c) if k <= n else _shifted_solve(b.T, a.T, -c.T).T
    resid = np.linalg.norm(a @ x - x @ b - c)
    if resid > 1e-10 * max(1.0, np.linalg.norm(x)):
        raise ValueError(f"Sylvester residual {resid:.3e} exceeds tolerance")
    return x


def _shifted_solve(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a X - X b = c through the eigendecomposition of b, behind the cond gate."""
    # b is real: eig returns each complex pair as consecutive (mu, conj(mu)),
    # positive imaginary part first, with exactly conjugate eigenvectors
    mu, v = np.linalg.eig(b)
    first = mu.imag >= 0
    eye = np.eye(a.shape[0])
    svals = np.array([np.linalg.svd(a - m * eye, compute_uv=False)[[0, -1]] for m in mu[first]])
    with np.errstate(all="ignore"):  # a defective b gives cond(v) = inf
        bound = np.linalg.cond(v) ** 2 * svals[:, 0].max() / svals[:, 1].min()
    if not bound <= SYLVESTER_COND_MAX:
        raise ValueError(
            f"Sylvester system is ill conditioned (cond bound {bound:.12g} > {SYLVESTER_COND_MAX:g})"
        )
    rhs = c @ v[:, first]
    y = np.column_stack([np.linalg.solve(a - m * eye, r) for m, r in zip(mu[first], rhs.T)])
    # column of y for each eigenvalue: its own, or for a second member its partner's
    src = y[:, np.cumsum(first) - 1]
    y = np.where(first, src, src.conj())
    return np.linalg.solve(v.T, y.T).T.real


def solve_lyapunov(a_cl, q) -> np.ndarray:
    """Solve a_cl^T W + W a_cl = -q for Hurwitz a_cl and symmetric PSD q.

    Uses the scaled Newton iteration for the matrix sign function (Roberts
    1980): A <- (mu A + A^{-1}/mu)/2 with mu = sqrt(||A^{-1}||_F/||A||_F)
    converges to sign(a_cl) = -I, while Q <- (mu Q + A^{-T} Q A^{-1}/mu)/2
    converges to 2W.  The identity is carried along as well, giving H with
    a_cl^T H + H a_cl = -I, so 2 sqrt(n) ||a_cl||_2 ||H||_2 bounds the
    condition number of the Kronecker matrix of the equation from above
    (Hewer & Kenney 1988); the system is refused when this bound exceeds
    SYLVESTER_COND_MAX, or when the iteration does not converge within
    SIGN_MAX_ITER steps.  The result is symmetrized, its residual verified
    against 1e-10 * max(1, ||W||_F); it is positive definite whenever q is.
    """
    a_cl = _square(a_cl, "a_cl")
    q = _square(q, "q")
    if q.shape != a_cl.shape:
        raise ValueError("q must match a_cl in shape")
    if np.linalg.norm(q - q.T) > 1e-10 * max(1.0, np.linalg.norm(q)):
        raise ValueError("q must be symmetric")
    e = eigenvalues(a_cl).eigenvalues
    if e.real.max() >= 0:
        raise ValueError("a_cl is not Hurwitz")
    # sigma(a_cl^T) = sigma(a_cl) and sigma(-a_cl) = -sigma(a_cl)
    if np.abs(e[:, None] + e).min() <= DISJOINT_TOL:
        raise ValueError(
            "sigma(a_cl^T) and sigma(-a_cl) overlap: Lyapunov equation has no unique solution"
        )
    n = a_cl.shape[0]
    eye = np.eye(n)
    a, qs = a_cl, np.stack([q, eye])
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
    bound = 2 * np.sqrt(n) * np.linalg.norm(a_cl, 2) * np.linalg.norm(h, 2)
    if not bound <= SYLVESTER_COND_MAX:
        raise ValueError(
            f"Lyapunov system is ill conditioned (cond bound {bound:.12g} > {SYLVESTER_COND_MAX:g})"
        )
    resid = np.linalg.norm(a_cl.T @ w + w @ a_cl + q)
    if resid > 1e-10 * max(1.0, np.linalg.norm(w)):
        raise ValueError(f"Lyapunov residual {resid:.3e} exceeds tolerance")
    return w


def pbh_observable(s, l, tol: float | None = None) -> bool:
    """PBH observability of (s, l): rank [lam I - s; l] = n at each eigenvalue."""
    s = _square(s, "s")
    l = as_matrix(l, "l")
    n = s.shape[0]
    if l.shape[1] != n:
        raise ValueError(f"l has {l.shape[1]} cols, expected {n}")
    for lam in eigenvalues(s).eigenvalues:
        stacked = np.vstack([lam * np.eye(n) - s, l.astype(complex)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        t = rank_tol(stacked, sv) if tol is None else tol
        if np.sum(sv > t) < n:
            return False
    return True


def pbh_reachable(q, r, tol: float | None = None) -> bool:
    """PBH reachability of (q, r), dual of :func:`pbh_observable`."""
    q = _square(q, "q")
    r = as_matrix(r, "r")
    if r.shape[0] != q.shape[0]:
        raise ValueError(f"r has {r.shape[0]} rows, expected {q.shape[0]}")
    return pbh_observable(q.T, r.T, tol)


def excitable(s, w0, tol: float | None = None) -> bool:
    """True iff the Krylov matrix [w0, s w0, ..., s^(n-1) w0] has full rank."""
    s = _square(s, "s")
    w = as_vector(w0, "w0")
    n = s.shape[0]
    if w.size != n:
        raise ValueError(f"w0 has size {w.size}, expected {n}")
    cols = [w]
    for _ in range(n - 1):
        cols.append(s @ cols[-1])
    krylov = np.column_stack(cols)
    return numerical_rank(krylov, tol) == n


def controllable(a, b, tol: float | None = None) -> bool:
    a = _square(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return numerical_rank(np.hstack(blocks), tol) == n


def block_diag_spectrum(poles) -> np.ndarray:
    """Real block-diagonal matrix realizing a self-conjugate pole list.

    Complex poles must come in conjugate pairs; each pair maps to a 2x2
    rotation-scaling block [[re, im], [-im, re]].
    """
    remaining = list(poles)
    blocks = []
    while remaining:
        lam = complex(remaining.pop(0))
        if abs(lam.imag) < 1e-14:
            blocks.append(np.array([[lam.real]]))
            continue
        conj = np.conjugate(lam)
        for i, other in enumerate(remaining):
            if abs(complex(other) - conj) < 1e-9:
                remaining.pop(i)
                break
        else:
            raise ValueError(f"pole {lam} has no conjugate partner")
        blocks.append(np.array([[lam.real, abs(lam.imag)], [-abs(lam.imag), lam.real]]))
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i : i + k, i : i + k] = b
        i += k
    return out


def place_poles(a, b, target, seed: int = 0, retries: int = PLACE_RETRIES) -> np.ndarray:
    """State-feedback gain K with sigma(a + b K) = sigma(target).

    Draws a random gain Kbar, solves a X - X target = -b Kbar, and sets
    K = Kbar X^{-1}; retries with a fresh Kbar if X is near singular.
    """
    a = _square(a, "a")
    b = as_matrix(b, "b")
    target = _square(target, "target")
    n, m = b.shape
    if a.shape[0] != n or target.shape[0] != n:
        raise ValueError("a, b, target dimensions are inconsistent")
    if not controllable(a, b):
        raise ValueError("(a, b) is not controllable")
    if not spectra_disjoint(a, target):
        raise ValueError("target spectrum intersects sigma(a)")
    rng = np.random.default_rng(seed)
    want = np.sort_complex(eigenvalues(target).eigenvalues)
    for _ in range(retries):
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
    """Nearest-match pairing of two spectra within tol per eigenvalue."""
    if got.size != want.size:
        return False
    pool = list(got)
    for w in want:
        dists = [abs(g - w) for g in pool]
        i = int(np.argmin(dists))
        if dists[i] > tol:
            return False
        pool.pop(i)
    return True


def pseudo_inverse(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, truncating singular values below tol*sigma_max."""
    m = as_matrix(m, "matrix")
    if tol is None:
        return np.linalg.pinv(m)
    return np.linalg.pinv(m, rcond=tol)
