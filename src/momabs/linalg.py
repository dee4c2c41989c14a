"""Dense real linear algebra for state-space problems, on plain numpy arrays.

Spectra, the O(n^3) Sylvester recurrence in the real Schur form of the
smaller side (:func:`solve_sylvester`) and Lyapunov solver
(:func:`solve_lyapunov`), each refusing what its Kronecker cond bound does
not keep within SYLVESTER_COND_MAX, :func:`place_poles`, and the PBH rank
test, the one rule for observability, reachability and excitability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DISJOINT_TOL = 1e-8  # eigenvalues this close count as shared between two spectra
SPECTRUM_TOL = 1e-8  # Hurwitz: real parts below -SPECTRUM_TOL; eigenvalues closer are not simple
SYLVESTER_COND_MAX = 1e12
PLACE_RETRIES = 16
SIGN_MAX_ITER = 100  # scaled Newton sign steps; about 10 suffice in practice
SIGN_TOL = 1e-8  # ||A + I||_F / sqrt(n) after which one more step is taken


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


def _require_shapes(dims: dict | None = None, /, **fields) -> None:
    """Raise a ValueError naming the first field (value, shape) not of its shape; None passes.
    With ``dims``, a size given as a string names a dimension: the first field
    that has the name binds it in ``dims``, and later fields are checked against it."""
    for name, (value, shape) in fields.items():
        if value is None:
            continue
        if dims is not None:
            for dim, size in zip(shape, np.shape(value)):
                if isinstance(dim, str):
                    dims.setdefault(dim, size)
            shape = [dims.get(dim, dim) for dim in shape]
        if np.shape(value) != tuple(shape):
            what = f"a {shape[0]}-vector" if len(shape) == 1 else "x".join(map(str, shape))
            raise ValueError(f"{name} must be {what}, got {np.shape(value)}")


def _square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    return m


def rank_tol(m: np.ndarray, svals: np.ndarray) -> float:
    """Default numerical-rank tolerance: sigma_max * (max(dim) * 1e-12), finite for any finite sigma_max."""
    smax = svals[0] if svals.size else 0.0
    return smax * (max(m.shape) * 1e-12)


def numerical_rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rank_tol(m, s)))


def _norm(x: np.ndarray, axis: int | None = None):
    """Euclidean norm of x (Frobenius), of each row (axis=1, a real x) or of
    each column (axis=0).  Only a norm that overflowed is retaken, of the
    entries times the exact power of two 2^-e, e = frexp(max |entry|), and
    scaled back, so it is inf only past the double range; a NaN propagates."""
    def plain(y):
        return np.sqrt(np.einsum("ij,ij->i", y, y)) if axis == 1 else np.linalg.norm(y, axis=axis)

    def retaken(y):  # exact: scaling by a power of two commutes with rounding (Higham 2002, sec. 2.1)
        e = np.frexp(np.abs(y).max(axis=axis, keepdims=True))[1]
        norm = plain(y * np.ldexp(1.0, -e))
        return np.ldexp(norm, e.reshape(np.shape(norm)))

    with np.errstate(over="ignore"):
        norms = plain(x)
        if axis is None:
            return retaken(x) if norms == np.inf else norms
        if (big := np.isinf(norms)).any():
            norms[big] = retaken(np.compress(big, x, axis=1 - axis))
    return norms


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
        _require_shapes(b=(b, (a.shape[0], b.shape[1])), c=(c, (c.shape[0], a.shape[0])))
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
    """Spectrum of a square matrix, sorted by real then imaginary part, with
    ``all_simple`` iff every two eigenvalues are more than SPECTRUM_TOL apart,
    and its largest real part."""
    vals = _eig(np.linalg.eigvals, m)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    with np.errstate(over="ignore"):  # an inf distance counts as apart
        apart = np.abs(vals[:, None] - vals) + np.diag(np.full(vals.size, np.inf))  # the pairs i != j
    return SpectrumReport(vals, bool(apart.min() > SPECTRUM_TOL), float(vals.real.max()))


def _eig(solver, m):
    """solver (np.linalg.eig or eigvals) of a square finite m; failing, a ValueError."""
    try:
        return solver(_square(m, "matrix"))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc


def spectra_disjoint(m1, m2) -> bool:
    """True iff every eigenvalue pair across the two spectra is > DISJOINT_TOL apart."""
    return _apart(eigenvalues(m1).eigenvalues, eigenvalues(m2).eigenvalues)


def _apart(e1: np.ndarray, e2: np.ndarray) -> bool:
    """True iff every pair across the two eigenvalue lists is > DISJOINT_TOL apart."""
    with np.errstate(over="ignore"):  # an inf distance counts as apart
        return bool(np.abs(e1[:, None] - e2[None, :]).min() > DISJOINT_TOL)


def _disjoint_gate(tau: float, a: np.ndarray, shifts, refusal: str) -> float:
    """Refuse with ``refusal`` unless sigma(a) is more than DISJOINT_TOL from
    ``shifts`` (one per conjugate pair).  Return t = max(tau, 2 DISJOINT_TOL)
    if :func:`_certify` proves sigma_min(a - mu I) >= t at every shift, with no
    eigensolve; else 0, after the computed spectrum of a has decided."""
    tau = max(tau, 2 * DISJOINT_TOL)  # an inf or nan tau tries no proof
    if np.isfinite(tau) and _certify(a, shifts, tau):
        return tau
    if not _apart(eigenvalues(a).eigenvalues, np.asarray(shifts)):
        raise ValueError(refusal)
    return 0.0


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve a X - X b = c by :func:`_schur_solve` in the real Schur form of
    the smaller side, b or tied (a smaller a through b^T X^T - X^T a^T =
    -c^T): O(k n^3) for k <= n.  A defective side, such as a Jordan block, is
    solved like any other.  Refused by the gates and :func:`_check_sylvester`."""
    a, b, c = _square(a, "a"), _square(b, "b"), as_matrix(c, "c")
    _require_shapes(c=(c, (len(a), len(b))))
    flip = len(b) > len(a)
    shifted, small, rhs = (b.T, a.T, -c.T) if flip else (a, b, c)
    x = _schur_solve(shifted, small, rhs)[0]
    x = x.T if flip else x
    _check_sylvester(a, b, c, x)
    return x


def _check_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray, system: str = "Sylvester") -> None:
    """Refuse unless ||a x - x b - c||_F <= 1e-10 max(1, ||x||_F); a nan fails."""
    if not (resid := _norm(a @ x - x @ b - c)) <= 1e-10 * max(1.0, _norm(x)):
        raise ValueError(f"{system} residual {resid:.3e} exceeds tolerance")


def _real_schur(b: np.ndarray) -> tuple:
    """(q, t, sizes): b = q t q^T, q orthogonal, t quasi upper triangular with
    diagonal blocks of these sizes (1: a real eigenvalue, 2: a conjugate pair),
    deflated from t's trailing part r one block at a time; a block r already
    isolates is kept, so a block-diagonal b keeps q = I.  At the eigenvalue mu
    of r nearest the real axis, the SVD null vector of r - x I spans a 1 x 1
    block if sigma_min <= tol for a real x (the mean of the eigenvalues near
    mu, which centres a defective cluster, else Re mu), else Re and Im of that
    of r - mu I a 2 x 2 one; a complete QR of that basis deflates it."""
    k, t, sizes = len(b), b.copy(), []
    q, tol = np.eye(k), 8 * k * k * 2.0**-52 * np.abs(b).max()
    while (i := sum(sizes)) < k:
        r = t[i:, i:]
        if not r[1:, 0].any():
            sizes.append(1)
            continue
        with np.errstate(all="ignore"):  # kept only if sigma_min(r_2x2 - mean I) >= beta^2 / ||.||_F > tol
            d, p, s = (r[0, 0] - r[1, 1]) / 2, r[0, 1], r[1, 0]
            if not r[2:, :2].any() and -(d * d + p * s) > tol * np.sqrt(2 * d * d + p * p + s * s):
                sizes.append(2)
                continue
        mus = np.linalg.eigvals(r)
        mu = mus[np.argmin(np.abs(mus.imag))]
        near = mus[np.abs(mus - mu) <= 10 * 2.0 ** (-52 / (k - i)) * (k - i) * np.abs(r).max()]
        for x in (near.mean().real, mu.real):
            sv, vh = np.linalg.svd(_shift(r, x))[1:]
            if sv[-1] <= tol:
                break
        if sv[-1] <= tol or not mu.imag:
            basis = vh[-1:].T
        else:
            v = np.linalg.svd(_shift(r, mu))[2][-1].conj()
            basis = np.column_stack([v.real, v.imag])
        u, size = np.linalg.qr(basis, mode="complete")[0], basis.shape[1]
        t[i:, i:] = u.T @ r @ u
        t[:i, i:] = t[:i, i:] @ u
        q[:, i:] = q[:, i:] @ u
        t[i + size :, i : i + size] = 0.0
        sizes.append(size)
    return q, t, sizes


def _schur_solve(a: np.ndarray, b: np.ndarray, c: np.ndarray, fit=None) -> tuple:
    """(X, L): a X - X b = c, or with fit = (e, g, h, tol) a X - X b = c - e L
    and g X = h.  Y = X q solves (a - t_jj) Y_j = r_j = (c q)_j + sum_{i<j} Y_i
    t_ij block by block in b = q t q^T (:func:`_real_schur`, :func:`_pair`); a
    fit's L_j w_1 is the least-squares l of G(mu) l = (h q)_j w_1 - g (a - mu
    I)^{-1} r_j w_1, refused past tol.  The gates, whose bound and tiers the
    README's ``momabs.linalg`` entry states, run before any solve."""
    q, t, sizes = _real_schur(b)
    starts, strict = [sum(sizes[:j]) for j in range(len(sizes))], t.copy()
    for i, s in zip(starts, sizes):
        strict[i : i + s, i : i + s] = 0.0
    with np.errstate(all="ignore"):  # an overflowing ||a||_F or cond(w) leaves the SVD tier to decide
        blocks = [_pair(*t[i : i + 2, i : i + 2]) if s == 2 else (t[i, i], np.ones(1), np.ones(1), 1.0)
                  for i, s in zip(starts, sizes)]
        shifts, cw = [blk[0] for blk in blocks], max(blk[3] for blk in blocks)
        tau_s = np.linalg.norm(strict, 2) if strict.any() else 0.0
        nb = len(sizes) if tau_s else 1
        norm = cw * (np.linalg.norm(a) + np.abs(shifts).max()) + tau_s
        tau = cw * max(base := 2 * nb * norm / SYLVESTER_COND_MAX, (base * tau_s ** (nb - 1)) ** (1 / nb))

    def bound(norm, sigma):
        with np.errstate(all="ignore"):
            return norm * (d := cw / np.float64(sigma)) * sum((d * tau_s) ** r for r in range(nb))

    def exact():
        sv = np.array([np.linalg.svd(_shift(a, m), compute_uv=False)[[0, -1]] for m in shifts]).T
        return bound(cw * sv[0].max() + tau_s, sv[1].min())

    refusal = "sigma(a) and sigma(b) overlap: Sylvester equation has no unique solution"
    proven = _disjoint_gate(tau, a, shifts, refusal)
    _cond_gate("Sylvester", bound(norm, proven) if proven else np.inf, exact)
    (e, g, h, tol), cq = fit or (None,) * 4, c @ q
    y, l = np.empty(c.shape), None if e is None else np.empty((e.shape[1], len(t)))
    for i, s, (mu, w1, row, _) in zip(starts, sizes, blocks):  # [z, conj z] w^{-1} = 2 Re(z row) for a pair
        cols = slice(i, i + s)
        r = cq[:, cols] @ w1 + y[:, :i] @ (t[:i, cols] @ w1)
        if e is None:
            z = np.linalg.solve(_shift(a, mu), r)
        else:
            x = np.linalg.solve(_shift(a, mu), np.column_stack([e, r]))
            gm, want = -(g @ x[:, :-1]), h @ q[:, cols] @ w1 - g @ x[:, -1]
            lj = np.linalg.lstsq(gm, want, rcond=None)[0]
            if not _norm(gm @ lj - want) <= tol * max(1.0, _norm(want)):
                raise ValueError(f"no embedding: h v is not in the range of G(mu) at mu = {complex(mu):g}")
            z = x[:, -1] - x[:, :-1] @ lj
            l[:, cols] = s * np.outer(lj, row).real
        y[:, cols] = s * np.outer(z, row).real
    return y @ q.T, None if l is None else l @ q.T


def _pair(row1: np.ndarray, row2: np.ndarray) -> tuple:
    """(mu, w_1, first row of w^{-1}, cond(w)) for a real 2 x 2 block [row1; row2]
    = w diag(mu, conj mu) w^{-1}, imag mu > 0, w = [w_1, conj w_1], w_1 = (q, mu -
    p) for row1 = (p, q); cond(w)^2 is the ratio of ||w_1||^2 +- |w_1^T w_1|."""
    (p, q), (r, s) = row1, row2
    mu = complex((p + s) / 2, abs((p - s) * (p - s) / 4 + q * r) ** 0.5)
    v1, det = mu - p, -2j * q * (mu - p).imag
    z = abs(q * q + v1 * v1) / (q * q + abs(v1) ** 2)
    return mu, np.array([q, v1]), np.array([v1.conjugate() / det, -q / det]), ((1 + z) / (1 - z)) ** 0.5


def _certify(a: np.ndarray, shifts, tau: float) -> bool:
    """True only if sigma_min(a - mu I) >= tau is proven at every mu in ``shifts``.

    First one real proof for all, as sigma_min(a - mu I) >= Re mu -
    lambda_max((a + a^T)/2) (numerical range; Trefethen & Embree 2005, ch. 17):
    :func:`_definite` of (min Re mu - tau - margin) I - (a + a^T)/2.  Else one
    per shift, of G - (tau^2 + margin) I with G = (a - mu I)^H (a - mu I)
    written from one a^T a, a + a^T and a - a^T.  The margins cover the
    roundings of forming and factoring (constants gamma_k, plus (n + 4)^2
    times the least normal double); a matrix past the double range fails."""
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


def _cond_gate(system: str, cheap: float, exact) -> None:
    """Refuse unless the cond bound is at most SYLVESTER_COND_MAX: ``cheap``,
    an upper bound on ``exact()``, accepts alone; else ``exact()`` decides, and a refusal quotes it."""
    if cheap > SYLVESTER_COND_MAX and not (bound := exact()) <= SYLVESTER_COND_MAX:
        raise ValueError(f"{system} system is ill conditioned (cond bound {bound:.12g} > {SYLVESTER_COND_MAX:g})")


def solve_lyapunov(a_cl, q) -> np.ndarray:
    """Solve a_cl^T W + W a_cl = -q for Hurwitz a_cl and symmetric PSD q.

    In the eigenbasis a_cl = v diag(e) v^{-1}, W = Re(v^{-H} Y v^{-1}), Y_ij =
    -(v^H q v)_ij / (conj(e_i) + e_j), accepted when the Kronecker cond bound
    2 ||a_cl||_F (||v||_F ||v^{-1}||_F)^2 / min_ij |e_i + e_j| is at most
    SYLVESTER_COND_MAX and W passes the residual check 1e-10 max(1, ||W||_F);
    else :func:`_sign_lyapunov` decides.  W is symmetric, and positive
    definite whenever q is.
    """
    a_cl = _square(a_cl, "a_cl")
    return _lyapunov(a_cl, q, *_eig(np.linalg.eig, a_cl))


def _lyapunov(a_cl: np.ndarray, q, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`solve_lyapunov` for a square a_cl whose eigenpairs (e, v) the
    caller already has, such as (sigma(a + b k) + lam, v) for a_cl = a + b k + lam I."""
    q = _square(q, "q")
    _require_shapes(q=(q, a_cl.shape))
    if not _norm(q - q.T) <= 1e-10 * max(1.0, _norm(q)):
        raise ValueError("q must be symmetric")
    if e.real.max() >= 0:
        raise ValueError("a_cl is not Hurwitz")
    if (gap := np.abs(e[:, None] + e).min()) <= DISJOINT_TOL:  # sigma(a_cl^T) = -sigma(-a_cl) = sigma(a_cl)
        raise ValueError("sigma(a_cl^T) and sigma(-a_cl) overlap: Lyapunov equation has no unique solution")
    if (top := np.abs(a_cl).max()) > 2.0**500:  # ||a_cl||_F would overflow; 2^-k (a_cl, q) has the same W
        a_cl, q, e, gap = (x * 2.0 ** -int(np.frexp(top)[1]) for x in (a_cl, q, e, gap))
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
        if _norm(a_cl.T @ w + w @ a_cl + q) <= 1e-10 * max(1.0, _norm(w)):
            return w
    return _sign_lyapunov(a_cl, q, bound)


def _sign_lyapunov(a_cl: np.ndarray, q: np.ndarray, bound: float = 0.0) -> np.ndarray:
    """The fallback of :func:`solve_lyapunov`: the scaled Newton sign
    iteration (Roberts 1980), A <- (mu A + A^{-1}/mu)/2 -> -I with Q <- (mu Q
    + A^{-T} Q A^{-1}/mu)/2 -> 2W and, from the identity, H with a_cl^T H + H
    a_cl = -I; 2 sqrt(n) ||a_cl||_2 ||H||_2 bounds the Kronecker cond (Hewer &
    Kenney 1988) for :func:`_cond_gate`.  Refused past that gate, on the
    residual check, or after SIGN_MAX_ITER steps without convergence, then
    quoting the caller's eigenbasis ``bound`` if that is above the gate."""
    n, eye = len(a_cl), np.eye(len(a_cl))
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
        else:  # a caller's cond bound above SYLVESTER_COND_MAX is the refusal
            _cond_gate("Lyapunov", bound, lambda: bound)
            raise ValueError(f"sign iteration did not converge in {SIGN_MAX_ITER} steps")
    w, h = 0.25 * (qs + qs.transpose(0, 2, 1))
    with np.errstate(over="ignore"):  # a norm past the double range is inf: the exact tier decides
        cheap = 2 * np.sqrt(n) * np.linalg.norm(a_cl) * np.linalg.norm(h)
    _cond_gate("Lyapunov", cheap, lambda: 2 * np.sqrt(n) * np.linalg.norm(a_cl, 2) * np.linalg.norm(h, 2))
    _check_sylvester(a_cl.T, -a_cl, -q, w, "Lyapunov")  # a_cl^T W - W (-a_cl) = -q
    return w


def pbh_observable(s, l) -> bool:
    """PBH observability of (s, l) (Hautus 1969): rank [s - lam I; l] = n at each eigenvalue
    lam of s, once per conjugate pair (at imag lam >= 0; conj lam gives the conjugate matrix)."""
    s, l = _square(s, "s"), as_matrix(l, "l")
    n = s.shape[0]
    _require_shapes(l=(l, (len(l), n)))
    lams = eigenvalues(s).eigenvalues
    return all(numerical_rank(np.vstack([_shift(s, lam), l])) == n for lam in lams[lams.imag >= 0])


def pbh_reachable(q, r) -> bool:
    """PBH reachability (controllability) of (q, r), dual of :func:`pbh_observable`."""
    q, r = _square(q, "q"), as_matrix(r, "r")
    _require_shapes(r=(r, (len(q), r.shape[1])))
    return pbh_observable(q.T, r.T)


def excitable(s, w0) -> bool:
    """True iff w0 excites every mode of s: (s, w0) is reachable by :func:`pbh_reachable`,
    tested at w0 times the exact power of two 2^-e that puts max |w0| in [1/2, 1)."""
    s, w = _square(s, "s"), as_vector(w0, "w0")
    _require_shapes(w0=(w, (len(s),)))
    return pbh_reachable(s, np.ldexp(w, -np.frexp(np.abs(w).max())[1])[:, None])


def block_diag_spectrum(poles) -> np.ndarray:
    """Real block-diagonal matrix realizing a self-conjugate pole list: a real pole
    as itself, a conjugate pair as the block [[re, |im|], [-|im|, re]]."""
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
    """State-feedback gain K = Kbar X^{-1} with sigma(a + b K) = sigma(target),
    for a random Kbar and a X - X target = -b Kbar, drawn up to PLACE_RETRIES
    times while X is near singular; an (a, b) that is not controllable is refused."""
    a, b, target = _square(a, "a"), as_matrix(b, "b"), _square(target, "target")
    n, m = len(a), b.shape[1]
    _require_shapes(b=(b, (n, m)), target=(target, (n, n)))
    if not pbh_reachable(a, b):
        raise ValueError("(a, b) is not controllable")
    rng = np.random.default_rng(seed)
    want = np.sort_complex(eigenvalues(target).eigenvalues)
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

