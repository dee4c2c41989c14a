import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import non_normal_stable_system, random_stable_system, rotation_block
from momabs import abstraction, linalg, moments, springmass
from momabs.linalg import (
    SPECTRUM_TOL,
    StateSpaceModel,
    block_diag_spectrum,
    eigenvalues,
    excitable,
    pbh_observable,
    pbh_reachable,
    place_poles,
    solve_lyapunov,
    solve_sylvester,
    spectra_disjoint,
)


def nearest_gap(got, expected):
    return max(np.abs(got - e).min() for e in expected)


SIMILARITY_LOG_COND = np.log([10.0, 100.0])  # non-normal plants: cond of the eigenbasis


def kron_sylvester(a, b):
    """Reference Kronecker matrix of a X - X b acting on vec(X), column-major."""
    return np.kron(np.eye(b.shape[0]), a) - np.kron(b.T, np.eye(a.shape[0]))


def kron_lyapunov(a_cl):
    """Reference Kronecker matrix of a_cl^T W + W a_cl acting on vec(W)."""
    return kron_sylvester(a_cl.T, -a_cl)


def reported_bound(excinfo) -> float:
    return float(re.search(r"cond bound (\S+)", str(excinfo.value)).group(1))


def rel_diff(x, ref) -> float:
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def small_side(rng, kind):
    """A small interpolation-side matrix with spectrum off the left half-plane:
    a normal oscillator, or a random non-normal 3 x 3 matrix."""
    if kind == "oscillator":
        return rotation_block(float(rng.uniform(0.5, 5.0)))
    return rng.standard_normal((3, 3)) + 4.0 * np.eye(3)


class TestEigenvalues:
    def test_springmass_spectrum(self):
        rep = eigenvalues(springmass.concrete().a)
        expected = [3.1623j, -3.1623j, 1.5811j, -1.5811j]
        assert nearest_gap(rep.eigenvalues, expected) < 1e-3
        assert rep.all_simple
        assert np.abs(rep.eigenvalues.real).max() <= SPECTRUM_TOL

    def test_hurwitz_means_real_parts_below_tolerance(self):
        # a real part within SPECTRUM_TOL of zero does not count as negative
        assert eigenvalues(np.diag([-1.0, -2 * SPECTRUM_TOL])).is_hurwitz()
        assert not eigenvalues(np.diag([-1.0, -0.5 * SPECTRUM_TOL])).is_hurwitz()
        assert not eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]])).is_hurwitz()

    def test_identity_not_simple(self):
        rep = eigenvalues(np.eye(3))
        assert np.allclose(rep.eigenvalues, 1.0)
        assert not rep.all_simple

    def test_companion_of_z2_plus_1(self):
        comp = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = eigenvalues(comp)
        assert nearest_gap(rep.eigenvalues, [1j, -1j]) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((0, 0)))


def record_shapes(monkeypatch, name):
    """Record the shape of the matrix passed to every np.linalg.<name> call."""
    shapes, real = [], getattr(np.linalg, name)

    def spy(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return shapes


@pytest.fixture
def eigvals_spy(monkeypatch):
    """Record the shape of every np.linalg.eigvals call."""
    return record_shapes(monkeypatch, "eigvals")


class TestNoPlantEigensolve:
    """Moment solves and transfer evaluations certify disjointness from their
    shifted inverses, so a well-separated order-n plant is never eigensolved."""

    def test_moment_pass_never_eigensolves_plant(self, eigvals_spy):
        rng = np.random.default_rng(7)
        plant = non_normal_stable_system(rng, n=50, cond=30.0)
        osc = lambda f1, f2: np.kron(np.diag([1.0, 0.0]), rotation_block(f1)) + np.kron(
            np.diag([0.0, 1.0]), rotation_block(f2)
        )
        di = moments.DirectInterpolant(s=osc(1.0, 3.0), l=rng.standard_normal((2, 4)))
        si = moments.SwappedInterpolant(q=osc(5.0, 7.0), r=rng.standard_normal((4, 2)))
        eigvals_spy.clear()
        rom = moments.rom_direct(plant, di, rng.standard_normal((4, 2)))
        moments.rom_two_sided(plant, di, si)
        assert moments.tangential_mismatch_direct(plant, rom, di) <= 1e-8
        assert eigvals_spy.count((50, 50)) == 0

    def test_swapped_mismatch_never_eigensolves_plant(self, eigvals_spy):
        rng = np.random.default_rng(11)
        plant = non_normal_stable_system(rng, n=50, m=4, p=4, cond=30.0)
        si = moments.SwappedInterpolant(q=rotation_block(3.0), r=rng.standard_normal((2, 4)))
        rom = moments.rom_swapped(plant, si, rng.standard_normal((4, 2)))
        assert moments.tangential_mismatch_swapped(plant, rom, si) <= 1e-8
        assert eigvals_spy.count((50, 50)) == 0

    def test_l_hat_free_certificate_never_eigensolves_plant(self, monkeypatch):
        rng = np.random.default_rng(5)
        plant = non_normal_stable_system(rng, n=50, cond=30.0)
        abstract = StateSpaceModel(
            a=rotation_block(1.5), b=rng.standard_normal((2, 2)), c=rng.standard_normal((2, 2))
        )
        k = -1e-6 * plant.b.T  # a + b k differs from a, so its spectra are told apart
        solved = {"eig": [], "eigvals": []}
        for name, got in solved.items():
            real = getattr(np.linalg, name)
            spy = lambda m, got=got, real=real: got.append(m.copy()) or real(m)
            monkeypatch.setattr(np.linalg, name, spy)
        abstraction.synth_certificate(plant, abstract, k)
        assert not any(np.array_equal(m, plant.a) for m in solved["eig"] + solved["eigvals"])
        # one eigendecomposition of a + b k gives the stability margin and the
        # eigenbasis of the shifted Lyapunov matrix
        assert [m.shape for m in solved["eigvals"]].count((50, 50)) == 0
        order_n = [m for m in solved["eig"] if m.shape == (50, 50)]
        assert len(order_n) == 1 and np.array_equal(order_n[0], plant.a + plant.b @ k)


def triangular_plant(n, cond, seed=0):
    """Upper triangular a with eigenvalues exactly -1, ..., -n on its diagonal,
    non-normal through the strict upper part of v diag(d) v^-1 for a unit
    upper triangular v with cond(v) = ``cond``."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.standard_normal((n, n)), 1)
    lo, hi = 0.0, 1.0
    while np.linalg.cond(np.eye(n) + hi * upper) < cond:
        hi *= 2
    for _ in range(60):  # bisect the scale of the strict upper part
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.linalg.cond(np.eye(n) + mid * upper) < cond else (lo, mid)
    v = np.eye(n) + hi * upper
    d = -np.arange(1.0, n + 1)
    return np.triu(v @ np.diag(d) @ np.linalg.inv(v), 1) + np.diag(d)


def outcome(fn, *args) -> str:
    """"ok", or the kind of refusal fn(*args) raised."""
    try:
        fn(*args)
    except ValueError as exc:
        for kind in ("overlap", "ill conditioned", "eigenvalue of a"):
            if kind in str(exc):
                return kind
        raise
    return "ok"


class TestDisjointnessDecisions:
    """The sigma_min certificate decides as the eager eigenvalue test does."""

    LAM = -3.0  # an eigenvalue of triangular_plant
    DELTAS = [0.0, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-5, 1e-3]  # distance of b's eigenvalue
    CONDS = [1.0, 1e2, 1e4]

    @pytest.mark.parametrize("cond", CONDS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_sylvester_near_an_eigenvalue(self, eigvals_spy, delta, cond):
        a = triangular_plant(8, cond)
        b = np.diag([self.LAM + delta, 5.0])
        c = np.ones((8, 2))
        if delta == 0.0:  # a - mu I is exactly singular: the solve raises and the spectra decide
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a - self.LAM * np.eye(8), c)
        if not spectra_disjoint(a, b):
            want = "overlap"
        else:
            ill = per_shift_sylvester(a, b, c)[1] > linalg.SYLVESTER_COND_MAX
            want = "ill conditioned" if ill else "ok"
        eigvals_spy.clear()
        assert outcome(solve_sylvester, a, b, c) == want
        self.assert_tier(eigvals_spy, a, self.LAM + delta, delta, cond)

    @staticmethod
    def assert_tier(eigvals_spy, a, mu, delta, cond):
        """Which tier decides: the eigenvalue test runs where delta <= DISJOINT_TOL,
        as no proof can show the gap, and where sigma_min(a - mu I) lies below
        the proof's rounding floor sqrt(n u) ||a - mu I||_F; for delta >= 1e-5
        and cond <= 1e2 well above that floor, the proof alone decides."""
        if delta <= linalg.DISJOINT_TOL:
            assert (8, 8) in eigvals_spy
        if delta >= 1e-5 and cond <= 1e2:
            floor = np.sqrt(8 * 2.0**-53) * np.linalg.norm(a - mu * np.eye(8))
            smin = np.linalg.svd(a - mu * np.eye(8), compute_uv=False)[-1]
            assert smin < floor or smin > 10 * floor  # a case of one tier
            assert ((8, 8) in eigvals_spy) == (smin < floor)

    @pytest.mark.parametrize("cond", CONDS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_transfer_near_an_eigenvalue(self, eigvals_spy, delta, cond):
        sys = StateSpaceModel(a=triangular_plant(8, cond), b=np.ones((8, 2)), c=np.ones((1, 8)))
        point = complex(self.LAM + delta)
        near = np.abs(eigenvalues(sys.a).eigenvalues - point).min() <= linalg.DISJOINT_TOL
        eigvals_spy.clear()
        if near:
            with pytest.raises(ValueError) as excinfo:
                moments.transfer_eval(sys, point)
            assert str(excinfo.value) == f"evaluation point {point} is numerically an eigenvalue of a"
        else:
            got = moments.transfer_eval(sys, point)
            assert got.dtype == complex
            ref = sys.c @ np.linalg.solve(point * np.eye(8) - sys.a, sys.b)
            assert np.allclose(got, ref, rtol=1e-6, atol=0.0)
        self.assert_tier(eigvals_spy, sys.a, point.real, delta, cond)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 6),
        k=st.integers(1, 6),
        delta=st.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-7, 1e-3]),
    )
    def test_overlap_refused_iff_spectra_not_disjoint(self, seed, n, k, delta):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((k, k))
        if delta is not None:  # give b an eigenvalue delta from a real one of a
            t = np.triu(rng.standard_normal((n, n)))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = q @ t @ q.T
            u = np.triu(rng.standard_normal((k, k))) + 3 * np.eye(k)
            d = rng.standard_normal(k)
            d[0] = t[0, 0] + delta
            b = u @ np.diag(d) @ np.linalg.inv(u)
        try:
            solve_sylvester(a, b, np.ones((n, k)))
            refused = False
        except (ValueError, np.linalg.LinAlgError) as exc:
            refused = "overlap" in str(exc)
        assert refused == (not spectra_disjoint(a, b))


class TestCertificate:
    """linalg._certify proves sigma_min(a - mu I) >= tau by one Cholesky."""

    @staticmethod
    def draw(seed, n, scale, kind):
        """(a, mu): a random n x n a with entries of order 10^scale and a real,
        complex or near-eigenvalue shift mu (within 1e-9 10^scale of one), or
        a dissipative a (skew minus SPD, half of them symmetric, so that the
        numerical-range bound is tight at a real mu) and a mu on or right of
        the imaginary axis."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * 10.0**scale
        if kind == "dissipative":
            k, m = rng.standard_normal((2, n, n))
            a = (rng.integers(2) * (k - k.T) - m @ m.T) * 10.0**scale
            re, im = rng.integers(2, size=2) * rng.standard_normal(2)
            return a, complex(abs(re), im) * 10.0**scale
        if kind == "real":
            return a, complex(rng.standard_normal() * 10.0**scale)
        if kind == "complex":
            return a, complex(*rng.standard_normal(2)) * 10.0**scale
        lam = rng.choice(np.linalg.eigvals(a))
        return a, complex(lam + 1e-9 * 10.0**scale * np.exp(2j * np.pi * rng.random()))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 12),
        scale=st.sampled_from([-150, 0, 150]),
        kind=st.sampled_from(["real", "complex", "near", "dissipative"]),
    )
    def test_never_certifies_above_sigma_min(self, seed, n, scale, kind):
        a, mu = self.draw(seed, n, scale, kind)
        svals = np.linalg.svd(a - mu * np.eye(n), compute_uv=False)
        slack = n * np.finfo(float).eps * svals[0]  # the SVD's own error
        for factor in (0.5, 0.9, 0.999, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6, 1.01, 2.0):
            tau = factor * svals[-1]
            if linalg._certify(a, [mu], tau):
                assert tau <= svals[-1] + slack

    @pytest.mark.parametrize("scale", [-500, 0, 500])
    def test_never_certifies_above_an_exact_sigma_min(self, scale):
        # a = -2^e v v^T (v integer, n >= 2) is exact, and sigma_min(a - mu I) = mu =
        # Re mu - lambda_max((a + a^T)/2) at a real mu > 0: the numerical-range bound is tight,
        # so only its margin stands between tau = mu (1 + excess) and a false proof.  With mu
        # up to 2^60 below ||a||, the rounding of the proof often exceeds mu excess
        rng = np.random.default_rng(scale + 1000)
        for _ in range(2000):
            e = scale + int(rng.integers(-3, 4))  # an odd e puts sqrt(2) in the factor
            v = np.append(rng.integers(1, 4), rng.integers(-3, 4, rng.integers(1, 12)))
            mu = rng.integers(1, 8) * 2.0 ** (e - int(rng.integers(0, 61)))
            tau = mu * (1 + rng.integers(1, 64) * 2.0 ** -int(rng.integers(30, 53)))
            assert not linalg._certify(-(2.0**e) * np.outer(v, v), [complex(mu)], tau)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), kind=st.sampled_from(["real", "complex"]))
    def test_certifies_well_separated_shifts(self, seed, n, kind):
        a, mu = self.draw(seed, n, 0, kind)
        shifted = a - mu * np.eye(n)
        smin = np.linalg.svd(shifted, compute_uv=False)[-1]
        assume(smin >= 1e-4 * np.linalg.norm(shifted))
        assert linalg._certify(a, [mu], 0.9 * smin)

    def test_overflowing_gram_matrix_fails_silently(self):
        a = springmass.concrete().a * 1e200
        assert not linalg._certify(a, [1.0 + 1.0j], 1.0)
        assert not linalg._certify(a, [0.5], 1.0)
        # a + a^T overflows too: the one-shot proof fails without a warning
        a = np.array([[-1.0, 1.0], [1.0, -1.0]]) * 1.5e308
        assert not linalg._certify(a, [1.0j], 1.0)
        assert not linalg._certify(-1.5e308 * np.eye(3), [1.0j, 0.5], 1.0)

    def test_numerical_range_bound_within_tau_falls_through(self, monkeypatch):
        # lambda_max((a + a^T)/2) = -eps lies within tau = 2 eps of rho = 0, so the
        # one-shot proof fails; the per-shift proof shows sigma_min(a - mu I) ~ 2.5
        eps = 0.01
        a = np.kron(np.eye(2), rotation_block(3.0)) - eps * np.eye(4)
        kinds, real = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: kinds.append(m.dtype.kind) or real(m))
        assert linalg._certify(a, [0.5j], 2 * eps)
        assert kinds == ["f", "c"]
        kinds.clear()
        assert linalg._certify(a, [0.5j], 0.5 * eps)  # now the one-shot proof holds
        assert kinds == ["f"]

    @staticmethod
    def two_sided_rom_factorizations(monkeypatch, cond):
        """dtype kinds of the 200 x 200 matrices factored by Cholesky in a
        two-sided ROM of an order-200 plant with eigenbasis cond ``cond``."""
        rng = np.random.default_rng(200)
        plant = non_normal_stable_system(rng, n=200, cond=cond)
        osc = np.kron(np.diag([1.0, 0.0]), rotation_block(1.0)) + np.kron(np.diag([0.0, 1.0]), rotation_block(3.0))
        di = moments.DirectInterpolant(s=osc, l=rng.standard_normal((2, 4)))
        si = moments.SwappedInterpolant(q=osc + 4.0 * np.eye(4), r=rng.standard_normal((4, 2)))
        monkeypatch.setattr(moments, "_moments", [])
        inverted = record_shapes(monkeypatch, "inv")
        kinds, real = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: kinds.append((m.shape, m.dtype.kind)) or real(m))
        moments.rom_two_sided(plant, di, si)
        assert (200, 200) not in inverted
        return [kind for shape, kind in kinds if shape == (200, 200)]

    def test_two_sided_rom_at_order_200_inverts_no_plant_matrix(self, monkeypatch):
        # the non-normal plant is not dissipative enough: on each side the real
        # one-shot attempt fails, then one complex Gram matrix per upper shift
        assert self.two_sided_rom_factorizations(monkeypatch, 30.0) == ["f", "c", "c"] * 2

    def test_two_sided_rom_of_normal_order_200_plant_factors_one_real_matrix_per_side(self, monkeypatch):
        assert self.two_sided_rom_factorizations(monkeypatch, 1.0) == ["f"] * 2


class TestSpectraDisjoint:
    def test_springmass_pair(self):
        assert spectra_disjoint(springmass.concrete().a, springmass.abstract().a)

    def test_identical_matrices(self, rng):
        m = rng.standard_normal((3, 3))
        assert not spectra_disjoint(m, m)

    def test_explicit_diagonals(self):
        assert spectra_disjoint(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))


class TestSylvester:
    def test_golden_embedding(self):
        plant = springmass.concrete()
        f = springmass.abstract().a
        p = solve_sylvester(plant.a, f, -(plant.b @ springmass.l_hat()))
        assert np.abs(p - springmass.embedding_p()).max() < 1e-9

    def test_homogeneous_gives_zero(self):
        x = solve_sylvester(np.diag([1.0, 2.0]), np.diag([3.0]), np.zeros((2, 1)))
        assert np.abs(x).max() < 1e-14

    def test_construct_then_solve(self, rng):
        a = rng.standard_normal((4, 4)) - 3 * np.eye(4)
        b = np.diag([1.0, 2.0])
        x0 = rng.standard_normal((4, 2))
        x = solve_sylvester(a, b, a @ x0 - x0 @ b)
        assert np.abs(x - x0).max() < 1e-9

    def test_residual_bound(self, rng):
        a = rng.standard_normal((5, 5)) - 4 * np.eye(5)
        b = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        c = rng.standard_normal((5, 3))
        x = solve_sylvester(a, b, c)
        resid = np.linalg.norm(a @ x - x @ b - c)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(x))

    def test_repeatable(self, rng):
        a = rng.standard_normal((4, 4)) - 3 * np.eye(4)
        b = np.diag([2.0, 5.0])
        c = rng.standard_normal((4, 2))
        x1 = solve_sylvester(a, b, c)
        x2 = solve_sylvester(a, b, c)
        assert np.abs(x1 - x2).max() <= 1e-12

    def test_overlapping_spectra_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            solve_sylvester(np.diag([1.0, 2.0]), np.diag([2.0]), np.ones((2, 1)))


class TestLyapunov:
    def test_diagonal_case(self):
        w = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.abs(w - 0.5 * np.eye(2)).max() < 1e-12

    def test_scalar(self):
        w = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        assert abs(w[0, 0] - 1.0) < 1e-12

    def test_closed_loop_springmass(self):
        plant = springmass.concrete()
        k = place_poles(plant.a, plant.b, springmass.closed_loop_target())
        a_cl = plant.a + plant.b @ k
        q = plant.c.T @ plant.c + 1e-6 * np.eye(4)
        w = solve_lyapunov(a_cl, q)
        assert np.abs(w - w.T).max() < 1e-12
        assert np.linalg.eigvalsh(w).min() > 0
        assert np.linalg.norm(a_cl.T @ w + w @ a_cl + q) <= 1e-9

    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError, match="Hurwitz"):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_rejects_spectrum_overlapping_its_mirror(self):
        # Hurwitz, but -1e-9 and its mirror 1e-9 are within DISJOINT_TOL
        with pytest.raises(ValueError, match="overlap"):
            solve_lyapunov(np.diag([-1e-9, -1.0]), np.eye(2))

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 5.0], [0.0, 1.0]]))


def sign_iteration_reference(a_cl, q):
    """(W, H) from the scaled Newton sign iteration, step for step as
    linalg's fallback runs it, without its gates."""
    n = a_cl.shape[0]
    eye = np.eye(n)
    a, qs = a_cl, np.stack([q, eye])
    for _ in range(linalg.SIGN_MAX_ITER):
        a_inv = np.linalg.inv(a)
        mu = np.sqrt(np.linalg.norm(a_inv) / np.linalg.norm(a))
        last = np.linalg.norm(a + eye) <= linalg.SIGN_TOL * np.sqrt(n)
        a = 0.5 * (mu * a + a_inv / mu)
        qs = 0.5 * (mu * qs + a_inv.T @ qs @ a_inv / mu)
        if last:
            return 0.25 * (qs + qs.transpose(0, 2, 1))
    raise AssertionError("no convergence")


@pytest.fixture
def sign_calls(monkeypatch):
    """Record every call of the sign-iteration fallback."""
    calls, real = [], linalg._sign_lyapunov
    monkeypatch.setattr(linalg, "_sign_lyapunov", lambda a_cl, q: calls.append(a_cl) or real(a_cl, q))
    return calls


class TestLyapunovEigenbasis:
    """The eigenbasis solve, and the sign iteration as its fallback."""

    @pytest.mark.parametrize("n", [1, 5, 40])
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_sign_iteration(self, sign_calls, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        plant = non_normal_stable_system(rng, n=n, cond=float(np.exp(rng.uniform(0.0, np.log(100.0)))))
        q = plant.c.T @ plant.c + 1e-3 * np.eye(n)
        w = solve_lyapunov(plant.a, q)
        assert sign_calls == []
        assert np.linalg.cond(np.linalg.eig(plant.a).eigenvectors) <= 100
        assert rel_diff(w, linalg._sign_lyapunov(plant.a, q)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_jordan_block_falls_back_to_the_sign_iteration(self, sign_calls, n):
        a_cl = -0.5 * np.eye(n) + np.eye(n, k=1)
        q = np.eye(n) + np.ones((n, n))
        w = solve_lyapunov(a_cl, q)
        assert len(sign_calls) == 1
        assert np.array_equal(w, sign_iteration_reference(a_cl, q)[0])
        assert np.linalg.norm(a_cl.T @ w + w @ a_cl + q) <= 1e-10 * np.linalg.norm(w)

    def test_jordan_block_refusal_quotes_the_sign_iteration_bound(self, monkeypatch):
        a_cl = -0.5 * np.eye(3) + np.eye(3, k=1)
        h = sign_iteration_reference(a_cl, np.eye(3))[1]
        monkeypatch.setattr(linalg, "SYLVESTER_COND_MAX", 1.0)
        with pytest.raises(ValueError, match="ill conditioned") as excinfo:
            solve_lyapunov(a_cl, np.eye(3))
        exact = 2 * np.sqrt(3) * np.linalg.norm(a_cl, 2) * np.linalg.norm(h, 2)
        assert reported_bound(excinfo) == float(f"{exact:.12g}")


class TestScipyCrossCheck:
    """The O(n^3) solvers against scipy's Bartels-Stewart solvers."""

    @pytest.mark.parametrize(
        "side, kind, n",
        [
            pytest.param(side, kind, n, id=f"{side}-{kind}-{n}")
            for side in ("right", "left")
            for kind in ("oscillator", "random")
            for n in (1, 5, 40, 200)
        ]
        + [pytest.param("right", "oscillator", 512, id="right-oscillator-512")],
    )
    def test_sylvester(self, scipy_linalg, n, kind, side):
        rng = np.random.default_rng(1000 * n + len(kind) + len(side))
        cond = float(np.exp(rng.uniform(*SIMILARITY_LOG_COND)))
        plant = non_normal_stable_system(rng, n=n, cond=cond)
        s = small_side(rng, kind)
        a, b = (plant.a, s) if side == "right" else (s, plant.a)
        c = rng.standard_normal((a.shape[0], b.shape[0]))
        x = solve_sylvester(a, b, c)
        assert rel_diff(x, scipy_linalg.solve_sylvester(a, -b, c)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 5, 40, 200])
    def test_lyapunov(self, scipy_linalg, n):
        rng = np.random.default_rng(n)
        cond = float(np.exp(rng.uniform(*SIMILARITY_LOG_COND)))
        plant = non_normal_stable_system(rng, n=n, cond=cond)
        q = plant.c.T @ plant.c + 1e-3 * np.eye(n)
        w = solve_lyapunov(plant.a, q)
        assert rel_diff(w, scipy_linalg.solve_continuous_lyapunov(plant.a.T, -q)) <= 1e-9


class TestConditioningGate:
    """The cond bounds never fall below the Kronecker cond they replace."""

    def test_sylvester_refuses_what_kronecker_refuses(self):
        a, b = np.diag([1e5, 1.0]), np.array([[1.0 + 2e-8]])
        assert np.linalg.cond(kron_sylvester(a, b)) > 1e12
        with pytest.raises(ValueError, match="ill conditioned"):
            solve_sylvester(a, b, np.ones((2, 1)))

    def test_lyapunov_refuses_what_kronecker_refuses(self):
        a_cl = np.diag([-1e6, -1e-7])
        assert np.linalg.cond(kron_lyapunov(a_cl)) > 1e12
        with pytest.raises(ValueError, match="ill conditioned"):
            solve_lyapunov(a_cl, np.eye(2))

    def test_lyapunov_overflowing_cheap_bound_refused_without_warning(self):
        # the sign iteration stays in range, but ||H||_F passes it: the exact tier refuses
        with pytest.raises(ValueError, match="ill conditioned"):
            solve_lyapunov(np.array([[-1.0, 1e78], [0.0, -1.0]]), np.eye(2))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        k=st.integers(1, 4),
        skew=st.sampled_from([0.0, 30.0]),
        swap=st.booleans(),
    )
    def test_sylvester_bound_dominates_kronecker_cond(self, seed, n, k, skew, swap):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((k, k)) + skew * np.triu(rng.standard_normal((k, k)), 1)
        if swap:
            a, b = b, a
        assume(spectra_disjoint(a, b))
        exact = np.linalg.cond(kron_sylvester(a, b))
        assume(exact < 1e6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "SYLVESTER_COND_MAX", 0.0)
            with pytest.raises(ValueError, match="ill conditioned") as excinfo:
                solve_sylvester(a, b, np.ones((a.shape[0], b.shape[0])))
        assert reported_bound(excinfo) >= (1 - 1e-9) * exact

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_sylvester_bound_exact_for_normal_small_side(self, monkeypatch, rng, side):
        monkeypatch.setattr(linalg, "SYLVESTER_COND_MAX", 0.0)
        plant = non_normal_stable_system(rng, n=12, cond=30.0)
        s = rotation_block(2.0)
        a, b = (plant.a, s) if side == "right" else (s, plant.a)
        with pytest.raises(ValueError, match="ill conditioned") as excinfo:
            solve_sylvester(a, b, np.ones((a.shape[0], b.shape[0])))
        exact = np.linalg.cond(kron_sylvester(a, b))
        assert abs(reported_bound(excinfo) - exact) <= 1e-8 * exact

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_lyapunov_bound_dominates_kronecker_cond(self, monkeypatch, n):
        monkeypatch.setattr(linalg, "SYLVESTER_COND_MAX", 0.0)
        a_cl = non_normal_stable_system(np.random.default_rng(n), n=n, cond=50.0).a
        with pytest.raises(ValueError, match="ill conditioned") as excinfo:
            solve_lyapunov(a_cl, np.eye(n))
        assert reported_bound(excinfo) >= (1 - 1e-9) * np.linalg.cond(kron_lyapunov(a_cl))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("similar", [False, True])
    @pytest.mark.parametrize("eig", [0.0, 2.0])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_defective_small_side_refused(self, rng, side, eig, similar):
        jordan = eig * np.eye(3) + np.eye(3, k=1)
        if similar:
            t = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            jordan = t @ jordan @ np.linalg.inv(t)
        plant = random_stable_system(rng, n=5)
        a, b = (plant.a, jordan) if side == "right" else (jordan, plant.a)
        with pytest.raises(ValueError, match="ill conditioned"):
            solve_sylvester(a, b, np.ones((a.shape[0], b.shape[0])))

    def test_singular_shift_decided_by_svd_bound(self, monkeypatch, rng):
        def singular(m, rhs):
            raise np.linalg.LinAlgError("Singular matrix")

        plant = random_stable_system(rng, n=5)
        args = (plant.a, rotation_block(2.0), np.ones((5, 2)))
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(np.linalg.LinAlgError):  # the SVD bound accepts: the failure stands
            solve_sylvester(*args)
        monkeypatch.setattr(linalg, "SYLVESTER_COND_MAX", 0.0)
        with pytest.raises(ValueError, match="ill conditioned"):
            solve_sylvester(*args)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        k=st.integers(1, 4),
        skew=st.sampled_from([0.0, 30.0]),
        swap=st.booleans(),
    )
    def test_sylvester_decisions_follow_the_svd_bound(self, seed, n, k, skew, swap):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((k, k)) + skew * np.triu(rng.standard_normal((k, k)), 1)
        if swap:
            a, b = b, a
        assume(spectra_disjoint(a, b))
        c = np.ones((a.shape[0], b.shape[0]))
        _, exact = per_shift_sylvester(a, b, c)
        assume(exact < 1e6)
        cheap, above_floor = cheap_sylvester_bound(a, b)
        assert cheap >= (1 - 1e-9) * exact
        # (threshold, whether the exact SVD bound must be computed)
        cases = [
            (exact * (1 - 1e-6), True),
            (exact * (1 + 1e-6), cheap > exact * (1 + 1e-6)),
        ]
        if above_floor:  # tau = min_j sigma_min(a - mu_j I) / 4: proven
            cases.append((4 * cheap, False))
        if cheap > 1.01 * exact:  # a threshold between the bounds: the SVD fallback accepts
            cases.append((np.sqrt(exact * cheap), True))
        for threshold, fallback in cases:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "SYLVESTER_COND_MAX", threshold)
                decomposed = record_shapes(mp, "svd")
                if exact > threshold:
                    with pytest.raises(ValueError, match="ill conditioned") as excinfo:
                        solve_sylvester(a, b, c)
                    assert abs(reported_bound(excinfo) - exact) <= 1e-9 * exact
                else:
                    solve_sylvester(a, b, c)
            assert ((max(n, k),) * 2 in decomposed) == fallback

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8), log_cond=st.floats(0.0, 5.0))
    def test_lyapunov_decisions_follow_the_svd_bound(self, seed, n, log_cond):
        rng = np.random.default_rng(seed)
        a_cl = non_normal_stable_system(rng, n=n, cond=float(np.exp(log_cond))).a
        h = linalg._sign_lyapunov(a_cl, np.eye(n))  # the H that the gate bounds
        exact = 2 * np.sqrt(n) * np.linalg.norm(a_cl, 2) * np.linalg.norm(h, 2)
        cheap = 2 * np.sqrt(n) * np.linalg.norm(a_cl) * np.linalg.norm(h)
        assert cheap >= (1 - 1e-12) * exact
        for threshold in (exact * (1 - 1e-6), exact * (1 + 1e-6), np.sqrt(exact * cheap)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "SYLVESTER_COND_MAX", threshold)
                if exact > threshold:
                    with pytest.raises(ValueError, match="ill conditioned") as excinfo:
                        solve_lyapunov(a_cl, np.eye(n))
                    assert reported_bound(excinfo) == float(f"{exact:.12g}")
                else:
                    solve_lyapunov(a_cl, np.eye(n))

    def test_sign_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "SIGN_MAX_ITER", 1)
        with pytest.raises(ValueError, match="did not converge"):  # defective: the sign iteration decides
            solve_lyapunov(np.array([[-1e-3, 1.0], [0.0, -1e-3]]), np.eye(2))

    def test_overflowing_sign_iteration_refused_without_warning(self):
        # a_cl is scaled by 2^-515, so the eigenbasis bound (about 1e155) is finite and
        # refers the system to the sign iteration, whose ||A^{-1}||_F overflows: it never converges
        with pytest.raises(ValueError, match="did not converge"):
            solve_lyapunov(np.diag([-1e155, -1.0]), np.eye(2))

    def test_huge_well_conditioned_a_cl_accepted(self):
        # Kronecker cond 2, but ||a_cl||_F overflows unless a_cl is scaled first
        a = np.array([-1e154, -2e154])
        w = solve_lyapunov(np.diag(a), np.eye(2))
        assert np.abs(np.diag(w) * 2.0 * np.abs(a) - 1.0).max() <= 1e-12
        assert w[0, 1] == w[1, 0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_power_of_two_scaling_is_exact(self, n):
        rng = np.random.default_rng(n)
        a0 = rng.standard_normal((n, n))
        a0 -= (np.linalg.eigvals(a0).real.max() + 1.0) * np.eye(n)
        a0 /= 2.0 * np.abs(a0).max()  # max |a0| = 1/2: 2^600 a0 is scaled back to a0, and q to 2^-600 q
        e, v = np.linalg.eig(a0)
        big = linalg._lyapunov(2.0**600 * a0, np.eye(n), 2.0**600 * e, v)
        assert np.array_equal(2.0**600 * big, linalg._lyapunov(a0, np.eye(n), e, v))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        log_cond=st.floats(0.0, 5.0),
        kind=st.sampled_from(["similar", "random"]),
    )
    def test_lyapunov_eigenbasis_bound_dominates_kronecker_cond(self, seed, n, log_cond, kind):
        rng = np.random.default_rng(seed)
        if kind == "similar":
            a_cl = non_normal_stable_system(rng, n=n, cond=float(np.exp(log_cond))).a
        else:
            a_cl = random_stable_system(rng, n=n, margin=float(np.exp(-log_cond))).a
        exact = np.linalg.cond(kron_lyapunov(a_cl))
        assume(exact < 1e8)
        # just below the Kronecker cond the eigenbasis tier must not accept; the
        # fallback's bound is at least the Kronecker cond too, so it refuses
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "SYLVESTER_COND_MAX", exact * (1 - 1e-9))
            with pytest.raises(ValueError, match="ill conditioned"):
                solve_lyapunov(a_cl, np.eye(n))


def per_shift_sylvester(a, b, c):
    """Reference: one complex solve and one SVD per eigenvalue of the
    smaller side, conjugate pairs included; returns (x, cond bound)."""
    if b.shape[0] > a.shape[0]:
        x, bound = per_shift_sylvester(b.T, a.T, -c.T)
        return x.T, bound
    mu, v = np.linalg.eig(b)
    eye = np.eye(a.shape[0])
    y = np.column_stack([np.linalg.solve(a - m * eye, r) for m, r in zip(mu, (c @ v).T)])
    svals = np.array([np.linalg.svd(a - m * eye, compute_uv=False)[[0, -1]] for m in mu])
    bound = np.linalg.cond(v) ** 2 * svals[:, 0].max() / svals[:, 1].min()
    return np.linalg.solve(v.T, y.T).T.real, bound


def cheap_sylvester_bound(a, b):
    """Reference over every shift mu_j of the smaller side: (the threshold
    2 cond(v)^2 (||a||_F + max_j |mu_j|) / min_j sigma_min(a - mu_j I),
    below which the tau of solve_sylvester exceeds some sigma_min(a - mu_j I),
    so that no proof of it can succeed; whether every sigma_min(a - mu_j I) is
    ten times above the proof's rounding floor sqrt(n u) ||a - mu_j I||_F)."""
    if b.shape[0] > a.shape[0]:
        return cheap_sylvester_bound(b.T, a.T)
    mu, v = np.linalg.eig(b)
    shifted = [a - m * np.eye(a.shape[0]) for m in mu]
    smin = np.array([np.linalg.svd(m, compute_uv=False)[-1] for m in shifted])
    floor = np.sqrt(a.shape[0] * 2.0**-53) * np.array([np.linalg.norm(m) for m in shifted])
    cheap = 2 * np.linalg.cond(v) ** 2 * (np.linalg.norm(a) + np.abs(mu).max()) / smin.min()
    return cheap, bool(np.all(smin > 10 * floor))


def mixed_small_side(kind):
    """Small real sides whose spectra mix real eigenvalues and conjugate pairs."""
    if kind == "real+pair":
        t = np.array([[2.0, 1.0, 0.0], [0.5, 1.0, 1.0], [0.0, 1.0, 3.0]])
        d = np.zeros((3, 3))
        d[0, 0], d[1:, 1:] = 0.7, [[1.5, 2.0], [-2.0, 1.5]]
        return t @ d @ np.linalg.inv(t)
    if kind == "repeated-pair":
        return np.kron(np.eye(2), rotation_block(2.0))
    rng = np.random.default_rng(3)  # three real eigenvalues and one pair
    return rng.standard_normal((5, 5)) + 4.0 * np.eye(5)


class TestConjugatePairs:
    """Each conjugate pair of shifts is solved and certified once."""

    KINDS = ["real+pair", "repeated-pair", "random-5x5"]

    @staticmethod
    def system(kind, side):
        rng = np.random.default_rng(len(kind) + len(side))
        plant = non_normal_stable_system(rng, n=9, cond=30.0)
        s = mixed_small_side(kind)
        a, b = (plant.a, s) if side == "right" else (s, plant.a)
        return a, b, rng.standard_normal((a.shape[0], b.shape[0]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_matches_per_shift_reference(self, kind, side):
        a, b, c = self.system(kind, side)
        e = np.linalg.eigvals(mixed_small_side(kind))
        assert np.any(e.imag > 0) and (kind == "repeated-pair" or np.any(e.imag == 0))
        ref, _ = per_shift_sylvester(a, b, c)
        assert rel_diff(solve_sylvester(a, b, c), ref) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_matches_scipy(self, scipy_linalg, kind, side):
        a, b, c = self.system(kind, side)
        assert rel_diff(solve_sylvester(a, b, c), scipy_linalg.solve_sylvester(a, -b, c)) <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_bound_equals_per_shift_bound(self, monkeypatch, kind, side):
        a, b, c = self.system(kind, side)
        _, ref = per_shift_sylvester(a, b, c)
        monkeypatch.setattr(linalg, "SYLVESTER_COND_MAX", 0.0)
        with pytest.raises(ValueError, match="ill conditioned") as excinfo:
            solve_sylvester(a, b, c)
        # the message prints 12 significant digits: compare like with like
        assert abs(reported_bound(excinfo) - float(f"{ref:.12g}")) <= 1e-12 * ref

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_one_inverse_per_upper_half_plane_mu(self, monkeypatch, kind, side):
        # in place of each inverse of a - mu I: one LU solve and one Cholesky,
        # after one failed real one-shot proof on this non-normal plant
        a, b, c = self.system(kind, side)
        n = max(a.shape[0], b.shape[0])
        inverted = record_shapes(monkeypatch, "inv")
        solved = record_shapes(monkeypatch, "solve")
        factored = record_shapes(monkeypatch, "cholesky")
        decomposed = record_shapes(monkeypatch, "svd")
        solve_sylvester(a, b, c)
        e = np.linalg.eigvals(mixed_small_side(kind))
        assert solved.count((n, n)) == factored.count((n, n)) - 1 == np.sum(e.imag >= 0) < e.size
        assert (n, n) not in inverted
        assert (n, n) not in decomposed  # accepted on the certificate alone


class TestConjugateFill:
    """The one pair rule: a second member takes its partner's conjugate value."""

    def test_fills_eig_order(self):
        mu = np.linalg.eigvals(mixed_small_side("random-5x5"))
        upper = mu[mu.imag >= 0]
        filled = linalg._conjugate_fill(mu, (upper + 1.0)[:, None])
        assert np.array_equal(filled[:, 0], mu + 1.0)

    def test_refuses_sorted_order(self):
        # a sorted spectrum lists the member with imag < 0 first
        mu = eigenvalues(rotation_block(2.0)).eigenvalues
        assert mu[0].imag < 0 < mu[1].imag
        with pytest.raises(ValueError, match="conjugate-pair order"):
            linalg._conjugate_fill(mu, np.ones((1, 1)))
        with pytest.raises(ValueError, match="conjugate-pair order"):
            moments.transfer_at(springmass.concrete(), mu)

    @pytest.mark.parametrize(
        "mu", [[1 + 2j, 1 - 2j, 1 - 2j], [1 + 2j, 3.0, 1 - 2j], [1 + 2j, 1 - 2.5j]]
    )
    def test_refuses_unpaired_second_member(self, mu):
        mu = np.array(mu)
        with pytest.raises(ValueError, match="conjugate-pair order"):
            linalg._conjugate_fill(mu, np.ones((np.sum(mu.imag >= 0), 1)))


def block_pair(seed, n_max):
    """(a, b, reachable): a random pair of order n <= n_max with one or two
    inputs, in a random basis, whose block-diagonal form mixes real
    eigenvalues and conjugate pairs with distinct real parts.  Each block's
    rows of b are zero with probability 1/4, which leaves its modes
    unreachable; as the modes are apart, the pair is reachable iff no block is."""
    r = np.random.default_rng(seed)
    n = int(r.integers(1, n_max + 1))
    sizes = []
    while sum(sizes) < n:
        sizes.append(2 if n - sum(sizes) >= 2 and r.random() < 0.5 else 1)
    d = np.zeros((n, n))
    b = r.standard_normal((n, int(r.integers(1, 3))))
    reachable, i = True, 0
    for size, k in zip(sizes, r.permutation(len(sizes))):
        re, im = -1.0 - k - 0.2 * r.random(), r.uniform(0.5, 3.0)
        d[i : i + size, i : i + size] = [[re, im], [-im, re]] if size == 2 else re
        if r.random() < 0.25:
            b[i : i + size] = 0.0
            reachable = False
        i += size
    while np.linalg.cond(t := r.standard_normal((n, n)) + 3 * np.eye(n)) > 100:
        pass
    return t @ d @ np.linalg.inv(t), t @ b, reachable


class TestPBH:
    def test_golden_observable(self):
        assert pbh_observable(springmass.abstract().a, springmass.l_hat())

    def test_zero_output_map(self):
        assert not pbh_observable(np.diag([1.0, 2.0]), np.zeros((1, 2)))

    def test_distinct_modes_excited(self):
        assert pbh_observable(np.diag([1.0, 2.0]), np.array([[1.0, 1.0]]))

    def test_golden_reachable(self):
        ab = springmass.abstract()
        assert pbh_reachable(ab.a, ab.b)

    def test_zero_input_map(self):
        assert not pbh_reachable(np.diag([1.0, 2.0]), np.zeros((2, 1)))

    def test_unreachable_mode(self):
        assert not pbh_reachable(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_duality(self, seed):
        r = np.random.default_rng(seed)
        s = r.standard_normal((3, 3))
        l = r.standard_normal((2, 3))
        assert pbh_observable(s, l) == pbh_reachable(s.T, l.T)

    def test_block_pairs_are_reachable_and_not(self):
        assert {block_pair(seed, 6)[2] for seed in range(40)} == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_krylov_rank_on_small_pairs(self, seed):
        # rank [b, a b, ..., a^(n-1) b] = n, reliable at these small orders
        a, b, reachable = block_pair(seed, 6)
        n = a.shape[0]
        krylov = np.hstack([np.linalg.matrix_power(a, j) @ b for j in range(n)])
        assert pbh_reachable(a, b) == (linalg.numerical_rank(krylov) == n) == reachable
        assert pbh_observable(a.T, b.T) == reachable

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_pbh_at_every_eigenvalue(self, seed):
        # the rank test at both members of each conjugate pair
        a, b, reachable = block_pair(seed, 12)
        n = a.shape[0]
        every = all(
            linalg.numerical_rank(np.hstack([lam * np.eye(n) - a, b])) == n
            for lam in np.linalg.eigvals(a)
        )
        assert pbh_reachable(a, b) == every == reachable


class TestExcitable:
    def test_golden_initial_condition(self):
        assert excitable(springmass.abstract().a, springmass.XI0)

    def test_zero_initial_condition(self):
        assert not excitable(np.diag([1.0, 2.0]), np.zeros(2))

    def test_eigenvector_initial_condition(self):
        assert not excitable(np.diag([1.0, 2.0]), np.array([1.0, 0.0]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_similarity_invariance(self, seed):
        r = np.random.default_rng(seed)
        s = r.standard_normal((3, 3))
        w0 = r.standard_normal(3)
        t = r.standard_normal((3, 3)) + 3 * np.eye(3)
        if np.linalg.cond(t) > 1e3:
            return
        assert excitable(s, w0) == excitable(t @ s @ np.linalg.inv(t), t @ w0)

    def test_generic_w0_on_order_16_oscillator(self):
        # the Krylov matrix of this pair is numerically rank deficient
        s = block_diag_spectrum([sign * 1j * f for f in range(1, 9) for sign in (1, -1)])
        assert excitable(s, np.random.default_rng(0).standard_normal(16))


ORDER_20_POLES = [-1 - 0.1 * j + sign * (0.5 + 0.2 * j) * 1j for j in range(10) for sign in (1, -1)]


class TestPlacePoles:
    def test_springmass_closed_loop(self):
        plant = springmass.concrete()
        k = place_poles(plant.a, plant.b, springmass.closed_loop_target())
        got = eigenvalues(plant.a + plant.b @ k).eigenvalues
        assert nearest_gap(got, springmass.CLOSED_LOOP_POLES) < 1e-6

    def test_trivial_full_actuation(self):
        k = place_poles(-np.eye(2), np.eye(2), -2 * np.eye(2))
        got = eigenvalues(-np.eye(2) + k).eigenvalues
        assert np.abs(got + 2).max() < 1e-6

    def test_abstract_stabilizer(self):
        ab = springmass.abstract()
        k_hat = place_poles(ab.a, ab.b, springmass.abstract_target())
        got = eigenvalues(ab.a + ab.b @ k_hat).eigenvalues
        assert nearest_gap(got, springmass.ABSTRACT_POLES) < 1e-6

    def test_seeded_reproducibility(self):
        plant = springmass.concrete()
        k1 = place_poles(plant.a, plant.b, springmass.closed_loop_target(), seed=7)
        k2 = place_poles(plant.a, plant.b, springmass.closed_loop_target(), seed=7)
        assert np.array_equal(k1, k2)

    def test_uncontrollable_rejected(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="controllable"):
            place_poles(a, b, -np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_controllable_order_20_plants_placed(self, seed):
        # the Krylov matrix of each of these plants is numerically rank deficient
        plant = non_normal_stable_system(np.random.default_rng(seed), n=20, m=2, p=2, cond=10.0)
        k = place_poles(plant.a, plant.b, block_diag_spectrum(ORDER_20_POLES))
        assert nearest_gap(eigenvalues(plant.a + plant.b @ k).eigenvalues, ORDER_20_POLES) < 1e-6

    # scipy warns that its YT iteration, which only improves the closed-loop
    # eigenvector conditioning, stopped short of its tolerance
    @pytest.mark.filterwarnings("ignore:Convergence was not reached:UserWarning")
    @pytest.mark.parametrize("seed", range(10))
    def test_scipy_places_the_order_20_plants(self, scipy_signal, seed):
        plant = non_normal_stable_system(np.random.default_rng(seed), n=20, m=2, p=2, cond=10.0)
        k = -scipy_signal.place_poles(plant.a, plant.b, ORDER_20_POLES).gain_matrix
        assert nearest_gap(eigenvalues(plant.a + plant.b @ k).eigenvalues, ORDER_20_POLES) < 1e-6

    def test_target_overlapping_plant_rejected(self):
        with pytest.raises(ValueError, match="intersects"):
            place_poles(np.diag([-1.0, -2.0]), np.eye(2), np.diag([-1.0, -5.0]))


class TestBlockDiagSpectrum:
    def test_conjugate_pairs(self):
        target = block_diag_spectrum([-3 + 1.5j, -3 - 1.5j, -5.0])
        got = eigenvalues(target).eigenvalues
        assert nearest_gap(got, [-3 + 1.5j, -3 - 1.5j, -5.0]) < 1e-12

    def test_unpaired_complex_rejected(self):
        with pytest.raises(ValueError, match="conjugate"):
            block_diag_spectrum([1j, 2j])


class TestStateSpaceModel:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            StateSpaceModel(a=np.eye(2), b=np.zeros((3, 1)), c=np.eye(2))
