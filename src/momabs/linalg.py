"""Dense real linear algebra for small state-space problems.

Spectra, rank tests, Sylvester/Lyapunov solvers, PBH and excitability
tests, and pole placement, on plain numpy arrays.  The Kronecker-vectorised
Lyapunov solver costs O(n^6) and is practical up to n of about 40.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DISJOINT_TOL = 1e-8
SYLVESTER_COND_MAX = 1e12
PLACE_RETRIES = 16


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
    classified as "zero".
    """
    a = _square(m, "matrix")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
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


def spectra_disjoint(m1, m2, tol: float = DISJOINT_TOL) -> bool:
    """True iff every eigenvalue pair across the two spectra is > tol apart."""
    e1 = eigenvalues(m1).eigenvalues
    e2 = eigenvalues(m2).eigenvalues
    dist = np.abs(e1[:, None] - e2[None, :])
    return bool(dist.min() > tol)


def solve_sylvester(a, b, c, disjoint_tol: float = DISJOINT_TOL) -> np.ndarray:
    """Solve a X - X b = c by Kronecker vectorization and dense LU.

    Requires disjoint spectra sigma(a) and sigma(b) for uniqueness.  The
    residual is verified against 1e-10 * max(1, ||X||_F).
    """
    a = _square(a, "a")
    b = _square(b, "b")
    c = as_matrix(c, "c")
    n, k = a.shape[0], b.shape[0]
    if c.shape != (n, k):
        raise ValueError(f"c must be {n}x{k}, got {c.shape}")
    if not spectra_disjoint(a, b, disjoint_tol):
        raise ValueError("sigma(a) and sigma(b) overlap: Sylvester equation has no unique solution")
    kron = np.kron(np.eye(k), a) - np.kron(b.T, np.eye(n))
    cond = np.linalg.cond(kron)
    if not np.isfinite(cond) or cond > SYLVESTER_COND_MAX:
        raise ValueError(f"Kronecker system is ill conditioned (cond={cond:.3e})")
    x = np.linalg.solve(kron, c.reshape(-1, order="F")).reshape((n, k), order="F")
    resid = np.linalg.norm(a @ x - x @ b - c)
    if resid > 1e-10 * max(1.0, np.linalg.norm(x)):
        raise ValueError(f"Sylvester residual {resid:.3e} exceeds tolerance")
    return x


def solve_lyapunov(a_cl, q) -> np.ndarray:
    """Solve a_cl^T W + W a_cl = -q for Hurwitz a_cl and symmetric PSD q.

    The result is symmetrized; it is positive definite whenever q is.
    """
    a_cl = _square(a_cl, "a_cl")
    q = _square(q, "q")
    if q.shape != a_cl.shape:
        raise ValueError("q must match a_cl in shape")
    if np.linalg.norm(q - q.T) > 1e-10 * max(1.0, np.linalg.norm(q)):
        raise ValueError("q must be symmetric")
    if eigenvalues(a_cl).max_real_part >= 0:
        raise ValueError("a_cl is not Hurwitz")
    # a_cl^T W - W (-a_cl) = -q
    w = solve_sylvester(a_cl.T, -a_cl, -q)
    return 0.5 * (w + w.T)


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
