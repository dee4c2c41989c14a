import re
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import non_normal_stable_system, random_stable_system, rotation_block
from momabs import linalg, moments, springmass
from momabs.linalg import (
    StateSpaceModel,
    block_diag_spectrum,
    eigenvalues,
    excitable,
    pbh_observable,
    pbh_reachable,
    place_poles,
    pseudo_inverse,
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
        assert rep.on_imaginary_axis()

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


@pytest.fixture
def eigvals_spy(monkeypatch):
    """Empty the spectrum memo and record the shape of every np.linalg.eigvals call."""
    monkeypatch.setattr(linalg, "_spectra", OrderedDict())
    shapes, real_eigvals = [], np.linalg.eigvals

    def spy(a):
        shapes.append(np.shape(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return shapes


class TestSpectrumMemo:
    def test_in_place_change_gives_new_spectrum(self, eigvals_spy):
        m = np.diag([1.0, 2.0, 3.0])
        eigenvalues(m)
        m[0, 0] = 5.0
        assert np.array_equal(eigenvalues(m).eigenvalues, [2.0, 3.0, 5.0])
        assert len(eigvals_spy) == 2

    def test_transpose_is_a_separate_entry(self, eigvals_spy, rng):
        m = rng.standard_normal((4, 4))
        first = eigenvalues(m).eigenvalues
        assert np.allclose(eigenvalues(m.T).eigenvalues, first)  # its own eigensolve
        assert len(eigvals_spy) == 2 and len(linalg._spectra) == 2
        eigenvalues(m.copy())
        eigenvalues(np.ascontiguousarray(m.T))
        assert len(eigvals_spy) == 2

    def test_returned_array_is_read_only(self, eigvals_spy, rng):
        vals = eigenvalues(rng.standard_normal((3, 3))).eigenvalues
        assert not vals.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vals[0] = 0.0

    def test_memo_never_exceeds_its_size(self, eigvals_spy):
        for i in range(3 * linalg.SPECTRUM_MEMO_SIZE):
            eigenvalues(np.diag([float(i), -1.0]))
            assert len(linalg._spectra) == min(i + 1, linalg.SPECTRUM_MEMO_SIZE)
        eigenvalues(np.diag([0.0, -1.0]))  # evicted long ago
        assert len(eigvals_spy) == 3 * linalg.SPECTRUM_MEMO_SIZE + 1

    def test_report_built_per_call(self, eigvals_spy):
        m = np.diag([-1e-6, -1.0, -1.0 - 1e-6])
        loose = eigenvalues(m, zero_tol=1e-3, simple_tol=1e-3)
        tight = eigenvalues(m)
        assert loose.classification == ("negative", "negative", "zero")
        assert tight.classification == ("negative", "negative", "negative")
        assert not loose.all_simple and tight.all_simple
        assert len(eigvals_spy) == 1

    def test_plant_eigensolved_once_per_moment_pass(self, eigvals_spy):
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
        assert eigvals_spy.count((50, 50)) == 1

    def test_values_bit_identical_after_clearing(self, eigvals_spy):
        rng = np.random.default_rng(3)
        plant = non_normal_stable_system(rng, n=12, cond=30.0)
        s = rotation_block(2.0)
        c = rng.standard_normal((12, 2))

        def values():
            rep = eigenvalues(plant.a)
            return [
                rep.eigenvalues.copy(), rep.max_real_part, rep.classification,
                solve_sylvester(plant.a, s, c),
                solve_lyapunov(plant.a, np.eye(12)),
                moments.transfer_eval(plant, 2j),
            ]

        warm = values()
        for _ in range(2):
            linalg._spectra.clear()
            cold = values()
            for x, y in zip(warm, cold):
                assert np.array_equal(x, y)


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


@pytest.fixture
def scipy_linalg():
    return pytest.importorskip("scipy.linalg")


class TestScipyCrossCheck:
    """The O(n^3) solvers against scipy's Bartels-Stewart solvers."""

    @pytest.mark.parametrize("n", [1, 5, 40, 200])
    @pytest.mark.parametrize("kind", ["oscillator", "random"])
    @pytest.mark.parametrize("side", ["right", "left"])
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

    def test_sign_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "SIGN_MAX_ITER", 1)
        with pytest.raises(ValueError, match="did not converge"):
            solve_lyapunov(np.array([[-1e3, 1.0], [0.0, -1e-3]]), np.eye(2))


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
    """Each conjugate pair of shifts is factored and solved once."""

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
    def test_one_svd_per_upper_half_plane_eigenvalue(self, monkeypatch, kind, side):
        a, b, c = self.system(kind, side)
        n = max(a.shape[0], b.shape[0])
        shapes, real_svd = [], np.linalg.svd

        def spy(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return real_svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        solve_sylvester(a, b, c)
        e = np.linalg.eigvals(mixed_small_side(kind))
        assert shapes.count((n, n)) == np.sum(e.imag >= 0) < e.size


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

    def test_target_overlapping_plant_rejected(self):
        with pytest.raises(ValueError, match="intersects"):
            place_poles(np.diag([-1.0, -2.0]), np.eye(2), np.diag([-1.0, -5.0]))


class TestPseudoInverse:
    def test_identity(self):
        assert np.abs(pseudo_inverse(np.eye(3)) - np.eye(3)).max() < 1e-12

    def test_column_vector(self):
        assert np.abs(pseudo_inverse(np.array([[1.0], [0.0]])) - np.array([[1.0, 0.0]])).max() < 1e-12

    def test_penrose_identity(self, rng):
        m = rng.standard_normal((4, 2))
        assert np.abs(pseudo_inverse(m) @ m - np.eye(2)).max() < 1e-10


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

    def test_rank_convention(self):
        sys = StateSpaceModel(a=np.eye(2), b=np.zeros((2, 1)), c=np.eye(2))
        with pytest.raises(ValueError, match="full column rank"):
            sys.check_full_rank_maps()
