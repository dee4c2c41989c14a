"""Hierarchical abstraction synthesis for LTI systems.

Solves the embedding p f = a p + b l_hat, h = c p (h is the moment of the
plant at (f, l_hat)) and builds simulation-function certificates with their
interfaces, the geometric abstraction (projection / injection maps plus the
link matrices that witness the M-relation), and the final reduced model.  Each
relation's residual norms come from one function, :func:`embedding_residuals`
or :func:`m_relation_residuals`, which checks shapes; each caller scales them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    StateSpaceModel,
    _check_sylvester,
    _eig,
    _from_eigenbasis,
    _lyapunov,
    _require_shapes,
    _shifted_solve,
    as_matrix,
    numerical_rank,
    rank_tol,
    solve_sylvester,
)

RESIDUAL_TOL = 1e-9
DEFAULT_LAMBDA_FRACTION = 0.9  # certified decay rate as a share of a + b k's margin


@dataclass(frozen=True)
class SimulationCertificate:
    """Witness (p, l_hat, w, lam, k, r_hat) of an approximate simulation.

    p and l_hat solve the embedding equations p f = a p + b l_hat, h = c p;
    w and lam certify (a + b k)^T w + w (a + b k) <= -2 lam w with w >= c^T c.
    """

    p: np.ndarray
    l_hat: np.ndarray
    w: np.ndarray
    lam: float
    k: np.ndarray
    r_hat: np.ndarray


@dataclass(frozen=True)
class AbstractionDesign:
    """Output of the geometric abstraction construction.

    Satisfies m_map p = I, p m_map + d e = I, im(d) in ker(c),
    a p = p f - b l_hat, h = c p, g = [m_map b | m_map a d], and the
    link equations m_map a = f m_map + g n_map, g gamma = m_map b,
    c = h m_map.
    """

    p: np.ndarray
    d: np.ndarray
    e: np.ndarray
    m_map: np.ndarray
    f: np.ndarray
    l_hat: np.ndarray
    h: np.ndarray
    g: np.ndarray
    n_map: np.ndarray
    gamma: np.ndarray

    @property
    def order(self) -> int:
        return self.f.shape[0]

    def abstract_model(self) -> StateSpaceModel:
        return StateSpaceModel(a=self.f, b=self.g, c=self.h)


@dataclass(frozen=True)
class StabilizedLink:
    """Link v = n_map x + gamma u + k_hat (xi - m_map x) into the abstraction."""

    n_map: np.ndarray
    gamma: np.ndarray
    k_hat: np.ndarray


def embedding_residuals(sys: StateSpaceModel, p, f, l_hat, h=None) -> dict:
    """Norms ||p f - a p - b l_hat||_F ("state") and, given h, ||h - c p||_F ("output")."""
    # n_hat is the column count most fields share, f's on a tie: the odd one is named
    cols = [np.atleast_2d(x).shape[-1] for x in (f, p, l_hat, h) if x is not None]
    n_hat = max(cols, key=cols.count)
    _require_shapes(p=(p, (sys.n, n_hat)), f=(f, (n_hat, n_hat)),
                    l_hat=(l_hat, (sys.m, n_hat)), h=(h, (sys.p, n_hat)))
    res = {"state": np.linalg.norm(p @ f - sys.a @ p - sys.b @ l_hat)}
    return res if h is None else {**res, "output": np.linalg.norm(h - sys.c @ p)}


def m_relation_residuals(sys: StateSpaceModel, abstract: StateSpaceModel, m_map, n_map, gamma) -> dict:
    """Norms ||m_map a - f m_map - g n_map||_F ("state"), ||g gamma - m_map b||_F
    ("input") and ||c - h m_map||_F ("output"), with (f, g, h) = ``abstract``."""
    f, g, h = abstract.a, abstract.b, abstract.c
    _require_shapes(m_map=(m_map, (abstract.n, sys.n)), n_map=(n_map, (abstract.m, sys.n)),
                    gamma=(gamma, (abstract.m, sys.m)), h=(h, (sys.p, abstract.n)))
    return {
        "state": np.linalg.norm(m_map @ sys.a - f @ m_map - g @ n_map),
        "input": np.linalg.norm(g @ gamma - m_map @ sys.b),
        "output": np.linalg.norm(sys.c - h @ m_map),
    }


def solve_embedding(
    sys: StateSpaceModel, abstract: StateSpaceModel, l_hat=None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve p f = a p + b l_hat with h = c p: h is the moment of ``sys`` at (f, l_hat).

    At each eigenpair (mu, v) of f this says h v = G(mu) l_hat v, with
    G(s) = c (s I - a)^{-1} b.  Without l_hat, the gated shifted solves of
    the Sylvester equation (:func:`momabs.linalg._shifted_solve`) give
    X = (a - mu I)^{-1} b at each mu with imag >= 0, so G(mu) = -c X; each
    l_hat v is the minimum-norm solution y of G(mu) y = h v, refused unless
    h v is in the range of G(mu), and p v = -X y.  That is the joint
    minimum-norm (p, l_hat) when every G(mu) has full column rank.  Either
    way f must be diagonalizable with sigma(f) disjoint from sigma(a), and
    h = c p is verified.
    """
    f, h = abstract.a, abstract.c
    if l_hat is None:
        mu, v, xs = _shifted_solve(sys.a, f, lambda w: [sys.b] * w.shape[1])
        upper = mu.imag >= 0
        y = []
        for point, x, hv in zip(mu[upper], xs, (h @ v[:, upper]).T):
            g = -(sys.c @ x)
            y.append(np.linalg.lstsq(g, hv, rcond=None)[0])
            if np.linalg.norm(g @ y[-1] - hv) > RESIDUAL_TOL * max(1.0, np.linalg.norm(hv)):
                raise ValueError(f"no embedding: h v is not in the range of G(mu) at mu = {point:g}")
        l_hat = _from_eigenbasis(mu, v, y)
        p = _from_eigenbasis(mu, v, [-x @ yj for x, yj in zip(xs, y)])
        _check_sylvester(sys.a, f, -(sys.b @ l_hat), p)
    else:
        l_hat = as_matrix(l_hat, "l_hat")
        p = solve_sylvester(sys.a, f, -(sys.b @ l_hat))
    if embedding_residuals(sys, p, f, l_hat, h)["output"] > RESIDUAL_TOL * max(1.0, np.linalg.norm(h)):
        raise ValueError("output constraint h = c p is violated; no certificate exists")
    return p, l_hat


def synth_certificate(
    sys: StateSpaceModel,
    abstract: StateSpaceModel,
    k,
    l_hat=None,
) -> SimulationCertificate:
    """Construct a simulation-function certificate for ``abstract`` by ``sys``.

    (p, l_hat) come from :func:`solve_embedding` (l_hat interpolated from h
    when not given); lam is DEFAULT_LAMBDA_FRACTION times the spectral
    abscissa margin of a + b k; w, a shifted-Lyapunov solution, is scaled so
    that w >= c^T c; r_hat is all ones.
    """
    k = as_matrix(k, "k")
    a_cl = sys.a + sys.b @ k
    e, v = _eig(np.linalg.eig, a_cl)
    if e.real.max() >= 0:
        raise ValueError("k is not stabilizing")
    p, l_hat = solve_embedding(sys, abstract, l_hat)
    lam = DEFAULT_LAMBDA_FRACTION * abs(float(e.real.max()))
    ctc = sys.c.T @ sys.c
    eps = 1e-6 * (np.linalg.norm(sys.c, 2) ** 2 + 1.0)  # 1e-6 ||c^T c + I||_2
    # a_cl + lam I has the eigenvectors of a_cl and its eigenvalues + lam: one eigensolve
    w0 = _lyapunov(a_cl + lam * np.eye(sys.n), ctc + eps * np.eye(sys.n), e + lam, v)
    # smallest alpha with alpha w0 >= c^T c: lambda_max(z^T z), z = L^{-1} c^T for w0 = L L^T
    z = np.linalg.solve(np.linalg.cholesky(w0), sys.c.T)
    gen_max = float(np.linalg.eigvalsh(z.T @ z).max())
    w = max(1.0, gen_max) * w0
    r_hat = np.ones((sys.m, abstract.m))
    cert = SimulationCertificate(p=p, l_hat=l_hat, w=w, lam=lam, k=k, r_hat=r_hat)
    residuals = certificate_residuals(cert, sys, abstract.a)
    bad = {name: value for name, value in residuals.items() if value > RESIDUAL_TOL}
    if bad:
        raise ValueError(f"certificate residuals above {RESIDUAL_TOL:g}: {bad}")
    return cert


def certificate_residuals(cert: SimulationCertificate, sys: StateSpaceModel, f=None) -> dict:
    """Relative residuals of the certificate's defining relations, 0 where one holds.

    The asymmetry ||w - w^T||_F (eigvalsh reads one triangle of w), the c^T c
    domination gap max(0, -min eig(w - c^T c)) and the decay inequality
    max(0, max eig(a_cl^T w + w a_cl + 2 lam w)), a_cl = a + b k, are divided
    by max(1, ||w||_2), since eigvalsh rounding grows as eps ||w||.  Given
    the abstraction's state matrix f, the embedding residual
    ||p f - a p - b l_hat||_F is divided by max(1, ||p||_F).  Shapes must fit ``sys``.
    """
    _require_shapes(k=(cert.k, (sys.m, sys.n)), w=(cert.w, (sys.n, sys.n)))
    if f is not None:  # shapes before values
        embedding = embedding_residuals(sys, cert.p, f, cert.l_hat)["state"]
    a_cl = sys.a + sys.b @ cert.k
    w_scale = max(1.0, np.linalg.norm(cert.w, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge lam overflows 2 lam w
        lmi = a_cl.T @ cert.w + cert.w @ a_cl + 2 * cert.lam * cert.w
    if not np.all(np.isfinite(lmi)):
        raise ValueError(f"decay-inequality matrix is not finite at lam = {cert.lam:g}")
    gap = np.linalg.eigvalsh(cert.w - sys.c.T @ sys.c).min()
    res = {
        "w asymmetry": np.linalg.norm(cert.w - cert.w.T) / w_scale,
        "c^T c domination gap": max(0.0, -gap) / w_scale,
        "decay inequality": max(0.0, np.linalg.eigvalsh(lmi).max()) / w_scale,
    }
    if f is not None:
        res["embedding residual"] = embedding / max(1.0, np.linalg.norm(cert.p))
    return {name: float(value) for name, value in res.items()}


def simulation_fn_value(cert: SimulationCertificate, xi, x) -> float:
    """Value sqrt((p xi - x)^T w (p xi - x)); bounds ||h xi - c x||."""
    e = cert.p @ np.asarray(xi, float).reshape(-1) - np.asarray(x, float).reshape(-1)
    return float(np.sqrt(max(e @ cert.w @ e, 0.0)))


def gamma_gain(cert: SimulationCertificate, b, g) -> float:
    """Slope of the linear class-K gain: ||w^{1/2} m||_2 / lam = sqrt(lambda_max(m^T w m)) / lam.

    Here m = b r_hat - p g.  With gamma(r) = gain * r, the simulation function
    strictly decreases whenever gamma(||v||) < V.
    """
    b = as_matrix(b, "b")
    g = as_matrix(g, "g")
    mat = b @ cert.r_hat - cert.p @ g
    return float(np.sqrt(max(np.linalg.eigvalsh(mat.T @ cert.w @ mat).max(), 0.0)) / cert.lam)


def design_abstraction(sys: StateSpaceModel, p) -> AbstractionDesign:
    """Geometric abstraction from an injective p with im(a p) in im(p) + im(b)
    and im(p) + ker(c) = R^n.

    The injection d is all of an orthonormal ker(c) basis when it has the
    n - n_hat columns d needs (n_hat = rank c), else the greedy pick of that
    many of them (:func:`_greedy_complement`); [m_map; e] = [p d]^{-1};
    (f, l_hat) solve [p, -b] [f; l_hat] = a p; n_map = [-l_hat m_map; e], gamma = [I; 0].
    """
    return _design_and_residuals(sys, p)[0]


def _design_and_residuals(sys: StateSpaceModel, p) -> tuple:
    """:func:`design_abstraction` and the :func:`check_design` table that verified it.  A d that is
    all of ker(c) takes no cond gate: the span test's rank n proved cond([p d]) < 1e12 / n."""
    p = as_matrix(p, "p")
    a, b, c = sys.a, sys.b, sys.c
    n, m = sys.n, sys.m
    n_hat = p.shape[1]
    if p.shape[0] != n:
        raise ValueError(f"p must have {n} rows")
    if numerical_rank(p) < n_hat:
        raise ValueError("p is not injective (rank deficient)")
    pb = np.hstack([p, b])
    if numerical_rank(np.hstack([pb, a @ p])) > numerical_rank(pb):
        raise ValueError("im(a p) is not contained in im(p) + im(b)")
    d = _kernel_basis(c)
    stacked = np.hstack([p, d])
    if numerical_rank(stacked) < n:
        raise ValueError("im(p) + ker(c) does not span the state space")
    if d.shape[1] > n - n_hat:
        d = _greedy_complement(p, d, n - n_hat)
        stacked = np.hstack([p, d])
        if np.linalg.cond(stacked) > 1e12:
            raise ValueError("[p d] is numerically singular; im(p) + im(d) != R^n")
    m_map, e = np.vsplit(np.linalg.inv(stacked), [n_hat])
    # a p = p f - b l_hat, solved per column for [f; l_hat]
    fl, *_ = np.linalg.lstsq(np.hstack([p, -b]), a @ p, rcond=None)
    f, l_hat = fl[:n_hat], fl[n_hat:]
    resid = embedding_residuals(sys, p, f, l_hat)["state"]
    if resid > RESIDUAL_TOL * max(1.0, np.linalg.norm(a @ p)):
        raise ValueError(f"embedding residual {resid:.3e}: geometric condition fails numerically")
    g = np.hstack([m_map @ b, m_map @ a @ d])
    n_map = np.vstack([-l_hat @ m_map, e])
    gamma = np.vstack([np.eye(m), np.zeros((n - n_hat, m))])
    design = AbstractionDesign(
        p=p, d=d, e=e, m_map=m_map, f=f, l_hat=l_hat, h=c @ p, g=g, n_map=n_map, gamma=gamma
    )
    return design, check_design(design, sys)


def _kernel_basis(c: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(c), each column's first largest-magnitude entry positive."""
    _, svals, vt = np.linalg.svd(c)
    basis = vt[np.sum(svals > rank_tol(c, svals)) :].T
    return basis * np.sign(basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])])


def _greedy_complement(p: np.ndarray, basis: np.ndarray, count: int) -> np.ndarray:
    """Pick ``count`` basis columns maximizing, at each step, the component
    orthogonal to the span of [p | selected]; ties break on column index.

    One pivoted Gram-Schmidt pass: the basis is projected off im(p) once, and
    each pick deflates the residuals by its normalized residual, a rank-1
    update, so no pick refactors [p | selected]."""
    if count > basis.shape[1]:
        raise ValueError("ker(c) is too small to complement im(p)")
    if count == 0:
        return np.zeros((p.shape[0], 0))
    q, _ = np.linalg.qr(p)
    resid = basis - q @ (q.T @ basis)
    selected: list[int] = []
    for _ in range(count):
        scores = np.linalg.norm(resid, axis=0)
        scores[selected] = -1.0
        best = int(np.argmax(scores))
        if scores[best] <= 1e-10:
            raise ValueError("kernel basis cannot complete im(p) to R^n")
        selected.append(best)
        u = resid[:, best] / scores[best]
        resid -= np.outer(u, u @ resid)
    return basis[:, selected]


def check_design(design: AbstractionDesign, sys: StateSpaceModel) -> dict:
    """Verify every defining identity of a design to RESIDUAL_TOL relative to
    max(1, ||a||_F, ||l_hat||_F); returns the residual table."""
    emb = embedding_residuals(sys, design.p, design.f, design.l_hat, design.h)
    rel = m_relation_residuals(sys, design.abstract_model(), design.m_map, design.n_map, design.gamma)
    res = {
        "m_map p - I": np.linalg.norm(design.m_map @ design.p - np.eye(design.order)),
        "p m_map + d e - I": np.linalg.norm(design.p @ design.m_map + design.d @ design.e - np.eye(sys.n)),
        "c d": np.linalg.norm(sys.c @ design.d),
        "a p - p f + b l_hat": emb["state"],
        "h - c p": emb["output"],
        "m_map a - f m_map - g n_map": rel["state"],
        "g gamma - m_map b": rel["input"],
        "c - h m_map": rel["output"],
    }
    scale = max(1.0, np.linalg.norm(sys.a), np.linalg.norm(design.l_hat))
    bad = {k: v for k, v in res.items() if v > RESIDUAL_TOL * scale}
    if bad:
        raise ValueError(f"design invariants violated: {bad}")
    return res


def check_m_relation(sys: StateSpaceModel, abstract: StateSpaceModel, m_map) -> dict:
    """:func:`m_relation_residuals` of ``abstract`` mirroring ``sys`` through
    m_map, at the least-squares witnesses n_map and gamma; refutation is not raised."""
    m_map = as_matrix(m_map, "m_map")
    _require_shapes(m_map=(m_map, (abstract.n, sys.n)))
    n_map = np.linalg.lstsq(abstract.b, m_map @ sys.a - abstract.a @ m_map, rcond=None)[0]
    gamma = np.linalg.lstsq(abstract.b, m_map @ sys.b, rcond=None)[0]
    return m_relation_residuals(sys, abstract, m_map, n_map, gamma)


def final_abstraction(design: AbstractionDesign, sys: StateSpaceModel) -> StateSpaceModel:
    """Reduced abstract model (f, m_map b, c p) driven directly by the plant input."""
    return StateSpaceModel(a=design.f, b=design.m_map @ sys.b, c=design.h)
