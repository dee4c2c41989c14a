import tracemalloc

import numpy as np
import pytest

from conftest import (
    non_normal_stable_system,
    random_direct_interpolant,
    random_stable_system,
    random_swapped_interpolant,
    rotation_block,
)
from momabs import cli, moments, springmass
from momabs.linalg import StateSpaceModel, block_diag_spectrum, eigenvalues
from momabs.modelio import RunReport
from momabs.moments import (
    DirectInterpolant,
    SwappedInterpolant,
    moment_direct,
    moment_swapped,
    rom_direct,
    rom_swapped,
    rom_two_sided,
    tangential_mismatch_direct,
    tangential_mismatch_swapped,
    transfer_eval,
)


def siso_stable(rng, n=3):
    return random_stable_system(rng, n=n, m=1, p=1)


class TestMomentDirect:
    def test_golden_springmass(self):
        plant = springmass.concrete()
        interp = DirectInterpolant(s=springmass.abstract().a, l=springmass.l_hat())
        sol = moment_direct(plant, interp)
        assert np.abs(sol.pi - springmass.embedding_p()).max() < 1e-9
        assert np.abs(sol.moment - np.eye(2)).max() < 1e-9

    def test_zero_input_map(self, rng):
        sys = random_stable_system(rng, n=3, m=1, p=1)
        sys = StateSpaceModel(a=sys.a, b=np.zeros((3, 1)), c=sys.c)
        interp = DirectInterpolant(s=np.array([[0.0]]), l=np.array([[1.0]]))
        sol = moment_direct(sys, interp)
        assert np.abs(sol.pi).max() < 1e-12
        assert np.abs(sol.moment).max() < 1e-12

    def test_interpolation_at_origin(self, rng):
        sys = siso_stable(rng)
        interp = DirectInterpolant(s=np.array([[0.0]]), l=np.array([[1.0]]))
        sol = moment_direct(sys, interp)
        tf0 = sys.c @ np.linalg.solve(-sys.a, sys.b)
        assert np.abs(sol.moment - tf0).max() < 1e-10

    def test_overlapping_spectra_rejected(self, rng):
        sys = siso_stable(rng)
        lam = np.linalg.eigvals(sys.a)
        real = lam[np.abs(lam.imag) < 1e-9]
        if real.size == 0:
            pytest.skip("no real eigenvalue to collide with")
        interp = DirectInterpolant(s=np.array([[real[0].real]]), l=np.array([[1.0]]))
        with pytest.raises(ValueError, match="overlap"):
            moment_direct(sys, interp)


class TestMomentMemo:
    def test_same_content_solved_once(self, sylvester_calls, rng):
        sys = random_stable_system(rng, n=5, m=1, p=1)
        di = DirectInterpolant(s=rotation_block(2.0), l=rng.standard_normal((1, 2)))
        first = moment_direct(sys, di)
        again = moment_direct(
            StateSpaceModel(a=sys.a.copy(), b=sys.b.copy(), c=sys.c.copy()),
            DirectInterpolant(s=di.s.copy(), l=di.l.copy()),
        )
        assert len(sylvester_calls) == 1
        assert np.array_equal(first.pi, again.pi) and np.array_equal(first.moment, again.moment)

    def test_solution_is_read_only(self, sylvester_calls, rng):
        sys = random_stable_system(rng, n=4, m=1, p=1)
        si = SwappedInterpolant(q=rotation_block(3.0), r=rng.standard_normal((2, 1)))
        ups = moment_swapped(sys, si).upsilon
        with pytest.raises(ValueError, match="read-only"):
            ups[0, 0] = 0.0
        [(kept, pi)] = moments._moments
        # Ups is a transposed view of the dual plant's Pi, not a copy
        assert np.shares_memory(ups, pi) and np.array_equal(ups, pi.T)
        assert all(not x.flags.writeable for x in (*kept, pi))
        assert not any(np.shares_memory(x, y) for x in kept for y in (si.q, sys.a))

    def test_swapped_is_the_dual_direct_moment(self, sylvester_calls, rng):
        # q Ups = Ups a + r c is the transpose of Pi q^T = a^T Pi + c^T r^T
        sys = random_stable_system(rng, n=5, m=2, p=3)
        si = SwappedInterpolant(q=real_and_pair_generator(rng), r=rng.standard_normal((3, 3)))
        ups = moment_swapped(sys, si).upsilon
        dual = StateSpaceModel(a=sys.a.T, b=sys.c.T, c=sys.b.T)
        pi = moment_direct(dual, DirectInterpolant(s=si.q.T, l=si.r.T)).pi
        bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
        assert np.array_equal(bits(ups), bits(pi.T))
        assert len(sylvester_calls) == 1

    def test_plants_differing_only_in_c_share_one_solve(self, sylvester_calls, rng):
        # c does not enter Pi s = a Pi + b l, so the memo is keyed on (a, s, l, b)
        sys = random_stable_system(rng, n=4, m=1, p=2)
        other = StateSpaceModel(a=sys.a, b=sys.b, c=rng.standard_normal((3, 4)))
        di = DirectInterpolant(s=rotation_block(2.0), l=rng.standard_normal((1, 2)))
        first, second = moment_direct(sys, di), moment_direct(other, di)
        assert len(sylvester_calls) == 1 and len(moments._moments) == 1
        assert second.pi is first.pi and np.array_equal(second.moment, other.c @ first.pi)

    def test_in_place_change_is_a_miss(self, sylvester_calls, rng):
        # the memo compares with its own copies, not with the caller's arrays
        sys = random_stable_system(rng, n=4, m=1, p=1)
        di = DirectInterpolant(s=rotation_block(2.0), l=rng.standard_normal((1, 2)))
        first = moment_direct(sys, di).pi
        sys.a[0, 0] -= 1.0
        assert not np.array_equal(moment_direct(sys, di).pi, first)
        assert len(sylvester_calls) == 2

    def test_negative_zero_is_a_miss(self, sylvester_calls, rng):
        sys = random_stable_system(rng, n=3, m=1, p=1)
        for zero in (0.0, -0.0, 0.0):
            moment_direct(sys, DirectInterpolant(s=np.array([[zero]]), l=np.ones((1, 1))))
        assert len(sylvester_calls) == 2

    def test_lookup_copies_nothing(self):
        memo, big = [], np.random.default_rng(0).standard_normal((400, 400))
        solved = moments._memoized(memo, 2, lambda x: x.sum(axis=0), big)
        tracemalloc.start()
        try:
            again = moments._memoized(memo, 2, lambda x: x.sum(axis=0), big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again is solved
        assert peak < big.nbytes / 4  # one bool array of the comparison, 1/8 of it

    def test_changed_plant_is_solved_again(self, sylvester_calls, rng):
        sys = random_stable_system(rng, n=4, m=1, p=1)
        di = DirectInterpolant(s=rotation_block(2.0), l=rng.standard_normal((1, 2)))
        moment_direct(sys, di)
        a = sys.a.copy()
        a[0, 0] -= 1.0
        shifted = StateSpaceModel(a=a, b=sys.b, c=sys.c)
        want = np.linalg.solve(
            np.kron(np.eye(2), a) - np.kron(di.s.T, np.eye(4)), -(sys.b @ di.l).reshape(-1, order="F")
        )
        assert np.allclose(moment_direct(shifted, di).pi.reshape(-1, order="F"), want)
        assert len(sylvester_calls) == 2

    def test_memo_never_exceeds_its_size(self, sylvester_calls, rng):
        sys = random_stable_system(rng, n=3, m=1, p=1)
        for i in range(3 * moments.MOMENT_MEMO_SIZE):
            moment_direct(sys, DirectInterpolant(s=rotation_block(1.0 + i), l=np.ones((1, 2))))
            assert len(moments._moments) == min(i + 1, moments.MOMENT_MEMO_SIZE)
        moment_direct(sys, DirectInterpolant(s=rotation_block(1.0), l=np.ones((1, 2))))  # evicted
        assert len(sylvester_calls) == 3 * moments.MOMENT_MEMO_SIZE + 1


class TestMomentSwapped:
    def test_interpolation_at_origin(self, rng):
        sys = siso_stable(rng)
        interp = SwappedInterpolant(q=np.array([[0.0]]), r=np.array([[1.0]]))
        sol = moment_swapped(sys, interp)
        tf0 = sys.c @ np.linalg.solve(-sys.a, sys.b)
        assert np.abs(sol.moment - tf0).max() < 1e-10

    def test_zero_output_map(self, rng):
        sys = random_stable_system(rng, n=3, m=2, p=1)
        sys = StateSpaceModel(a=sys.a, b=sys.b, c=np.zeros((1, 3)))
        interp = SwappedInterpolant(q=np.array([[0.0]]), r=np.array([[1.0]]))
        sol = moment_swapped(sys, interp)
        assert np.abs(sol.upsilon).max() < 1e-12
        assert np.abs(sol.moment).max() < 1e-12


class TestInterpolantValidation:
    def test_unobservable_rejected(self):
        with pytest.raises(ValueError, match="observable"):
            DirectInterpolant(s=np.diag([1.0, 2.0]), l=np.zeros((1, 2)))

    def test_unreachable_rejected(self):
        with pytest.raises(ValueError, match="reachable"):
            SwappedInterpolant(q=np.diag([1.0, 2.0]), r=np.array([[1.0], [0.0]]))


class TestRomDirect:
    def test_moment_invariance_random(self, rng):
        for _ in range(5):
            sys = random_stable_system(rng, n=6, m=2, p=2)
            interp = random_direct_interpolant(rng, sys)
            g = rng.standard_normal((2, 2))
            rom = rom_direct(sys, interp, g)
            full = moment_direct(sys, interp).moment
            red = moment_direct(rom, interp).moment
            assert np.abs(full - red).max() < 1e-8 * max(1.0, np.abs(full).max())

    def test_zero_g_rejected(self, rng):
        sys = random_stable_system(rng, n=4, m=1, p=1)
        interp = random_direct_interpolant(rng, sys)
        with pytest.raises(ValueError, match="moment matching fails"):
            rom_direct(sys, interp, np.zeros((2, 1)))

    def test_transfer_interpolation_at_pm_i(self, rng):
        sys = siso_stable(rng)
        interp = DirectInterpolant(s=rotation_block(1.0), l=np.array([[1.0, 0.0]]))
        rom = rom_direct(sys, interp, rng.standard_normal((2, 1)))
        for s in (1j, -1j):
            tf_full = transfer_eval(sys, s)
            tf_rom = transfer_eval(rom, s)
            assert np.abs(tf_full - tf_rom).max() < 1e-8


    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_jordan_interpolant_matches_two_derivatives(self, seed, mu):
        # a size-3 Jordan s at mu with l = e_1^T: Pi's columns are (mu I - a)^{-j} b,
        # so the moment, and with it the ROM, is [G(mu), G'(mu), G''(mu)/2]
        rng = np.random.default_rng(seed)
        sys = random_stable_system(rng, n=6, m=1, p=2)
        interp = DirectInterpolant(s=mu * np.eye(3) + np.eye(3, k=1), l=np.eye(1, 3))
        rom = rom_direct(sys, interp, rng.standard_normal((3, 1)))

        def taylor(model):  # G(mu), G'(mu) and G''(mu)/2 = (-1)^j c (mu I - a)^{-j-1} b
            x, out = model.b, []
            for j in range(3):
                x = np.linalg.solve(mu * np.eye(model.n) - model.a, x)
                out.append((-1) ** j * model.c @ x)
            return out

        for full, red in zip(taylor(sys), taylor(rom)):
            assert np.linalg.norm(red - full) <= 1e-8 * np.linalg.norm(full)


class TestRomSwapped:
    def test_moment_invariance_random(self, rng):
        for _ in range(5):
            sys = random_stable_system(rng, n=6, m=2, p=2)
            interp = random_swapped_interpolant(rng, sys)
            h = rng.standard_normal((2, 2))
            rom = rom_swapped(sys, interp, h)
            full = moment_swapped(sys, interp).moment
            red = moment_swapped(rom, interp).moment
            assert np.abs(full - red).max() < 1e-8 * max(1.0, np.abs(full).max())

    def test_zero_h_rejected(self, rng):
        sys = random_stable_system(rng, n=4, m=1, p=1)
        interp = random_swapped_interpolant(rng, sys)
        with pytest.raises(ValueError, match="moment matching fails"):
            rom_swapped(sys, interp, np.zeros((1, 2)))

    def test_transfer_interpolation(self, rng):
        sys = siso_stable(rng)
        interp = SwappedInterpolant(q=rotation_block(2.0), r=np.array([[1.0], [0.5]]))
        rom = rom_swapped(sys, interp, rng.standard_normal((1, 2)))
        tf_full = transfer_eval(sys, 2j)
        tf_rom = transfer_eval(rom, 2j)
        assert np.abs(tf_full - tf_rom).max() < 1e-8


class TestRomTwoSided:
    def test_both_moments_match(self, rng):
        for _ in range(3):
            sys = random_stable_system(rng, n=8, m=2, p=2)
            di = random_direct_interpolant(rng, sys, freq=1.3)
            si = random_swapped_interpolant(rng, sys, freq=2.7)
            rom = rom_two_sided(sys, di, si)
            md_full = moment_direct(sys, di).moment
            md_rom = moment_direct(rom, di).moment
            ms_full = moment_swapped(sys, si).moment
            ms_rom = moment_swapped(rom, si).moment
            assert np.abs(md_full - md_rom).max() < 1e-7 * max(1.0, np.abs(md_full).max())
            assert np.abs(ms_full - ms_rom).max() < 1e-7 * max(1.0, np.abs(ms_full).max())

    def test_transfer_match_at_all_points_siso(self, rng):
        sys = random_stable_system(rng, n=8, m=1, p=1)
        di = random_direct_interpolant(rng, sys, freq=1.1)
        si = random_swapped_interpolant(rng, sys, freq=3.2)
        rom = rom_two_sided(sys, di, si)
        for s in (1.1j, 3.2j):
            tf_full = transfer_eval(sys, s)
            tf_rom = transfer_eval(rom, s)
            rel = np.abs(tf_full - tf_rom).max() / max(1.0, np.abs(tf_full).max())
            assert rel < 1e-7

    def test_tangential_match_mimo(self, rng):
        sys = random_stable_system(rng, n=8, m=2, p=2)
        di = random_direct_interpolant(rng, sys, freq=1.1)
        si = random_swapped_interpolant(rng, sys, freq=3.2)
        rom = rom_two_sided(sys, di, si)
        assert tangential_mismatch_direct(sys, rom, di) < 1e-7
        assert tangential_mismatch_swapped(sys, rom, si) < 1e-7

    def test_orders_of_s_and_q_differ(self, rng):
        sys = random_stable_system(rng, n=6, m=1, p=1)
        s = block_diag_spectrum([1.5j, -1.5j, 0.5])
        di = DirectInterpolant(s=s, l=rng.standard_normal((1, 3)))
        si = random_swapped_interpolant(rng, sys, freq=3.0)
        with pytest.raises(ValueError, match=r"^s has order 3 and q order 2; two-sided matching needs one$"):
            rom_two_sided(sys, di, si)

    def test_coinciding_interpolants_rejected(self, rng):
        sys = random_stable_system(rng, n=6, m=1, p=1)
        di = random_direct_interpolant(rng, sys, freq=2.0)
        si = random_swapped_interpolant(rng, sys, freq=2.0)
        with pytest.raises(ValueError, match="disjoint"):
            rom_two_sided(sys, di, si)


class TestMemoizedTransfer:
    """The transfer directions a memoized moment pins, against independent solves."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("side", ["direct", "swapped"])
    def test_matches_scipy_solve(self, scipy_linalg, seed, side):
        # C Pi v_j = G(mu_j) l v_j at the eigenpairs of s; w_j^T Ups b = w_j^T r G(mu_j) at those of q^T
        rng = np.random.default_rng(seed)
        make = non_normal_stable_system if seed % 2 else random_stable_system
        sys = make(rng, n=int(rng.integers(8, 40)), m=int(rng.integers(1, 4)), p=int(rng.integers(1, 4)))
        gen = real_and_pair_generator(rng)
        if side == "direct":
            interp = DirectInterpolant(s=gen, l=rng.standard_normal((sys.m, 3)))
            mu, v = np.linalg.eig(gen)
            pinned, dirs = (moment_direct(sys, interp).moment @ v).T, (interp.l @ v).T
        else:
            interp = SwappedInterpolant(q=gen, r=rng.standard_normal((3, sys.p)))
            mu, w = np.linalg.eig(gen.T)
            pinned, dirs = w.T @ moment_swapped(sys, interp).moment, w.T @ interp.r
        for point, got, d in zip(mu, pinned, dirs):
            g = -(sys.c @ scipy_linalg.solve(sys.a - point * np.eye(sys.n), sys.b))
            want = g @ d if side == "direct" else d @ g
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("side", ["direct", "swapped"])
    def test_interpolant_larger_than_plant(self, side, sylvester_calls, rng):
        # solve_sylvester shifts the plant's side, and the moment still pins the transfer values
        sys = random_stable_system(rng, n=2, m=1, p=1)
        rom = random_stable_system(rng, n=3, m=1, p=1)
        gen = block_diag_spectrum([1j, -1j, 2j, -2j])
        if side == "direct":
            interp = DirectInterpolant(s=gen, l=rng.standard_normal((1, 4)))
            mismatch, reference = tangential_mismatch_direct, reference_mismatch_direct
        else:
            interp = SwappedInterpolant(q=gen, r=rng.standard_normal((4, 1)))
            mismatch, reference = tangential_mismatch_swapped, reference_mismatch_swapped
        got, ref = mismatch(sys, rom, interp), reference(sys, rom, interp)
        assert ref > 1e-6 and abs(got - ref) <= 1e-12 * max(1.0, ref)
        assert sylvester_calls == [((2, 2), (4, 4))]
        # reduce's single-channel rows against G(lam) = c (lam I - a)^{-1} b by numpy's solve
        report, tag = RunReport(command="reduce"), "s" if side == "direct" else "q"
        cli._interpolation_checks(report, sys, rom, interp, 1e-8, tag)
        names = [f"transfer match at sigma({tag}) point {lam:.4g}" for lam in (1j, 2j)]
        assert [check.name for check in report.checks] == names
        tf = lambda model, lam: model.c @ np.linalg.solve(lam * np.eye(model.n) - model.a, model.b)
        for lam, check in zip((1j, 2j), report.checks):
            want = np.linalg.norm(tf(sys, lam) - tf(rom, lam)) / max(1.0, np.linalg.norm(tf(sys, lam)))
            assert abs(check.value - want) <= 1e-12 * want


class TestTransferEval:
    def test_resolvent_identity_springmass(self):
        sys = springmass.concrete()
        tf = transfer_eval(sys, 1.0)
        x = np.linalg.solve(np.eye(4) - sys.a, sys.b)
        assert np.abs(tf - sys.c @ x).max() < 1e-12

    def test_zero_input_map(self):
        sys = StateSpaceModel(a=-np.eye(2), b=np.zeros((2, 1)), c=np.eye(2))
        assert np.abs(transfer_eval(sys, 0.5)).max() == 0.0

    def test_scalar_system(self):
        sys = StateSpaceModel(a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]))
        assert abs(transfer_eval(sys, 0.0)[0, 0] - 1.0) < 1e-14

    def test_rejects_eigenvalue_point(self):
        sys = StateSpaceModel(a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]))
        with pytest.raises(ValueError, match="eigenvalue"):
            transfer_eval(sys, -1.0)


def reference_mismatch_direct(full, rom, interp):
    """Per-eigenpair loop over the right eigenvectors v of s, direction l v."""
    vals, vecs = np.linalg.eig(interp.s)
    worst = 0.0
    for lam, v in zip(vals, vecs.T):
        d = interp.l @ v
        tf_full = transfer_eval(full, complex(lam))
        diff = (tf_full - transfer_eval(rom, complex(lam))) @ d
        worst = max(worst, np.linalg.norm(diff) / max(1.0, np.linalg.norm(tf_full @ d)))
    return worst


def reference_mismatch_swapped(full, rom, interp):
    """Per-eigenpair loop over the left eigenvectors w of q, direction w^T r."""
    vals, vecs = np.linalg.eig(interp.q.T)
    worst = 0.0
    for lam, w in zip(vals, vecs.T):
        d = w @ interp.r
        tf_full = transfer_eval(full, complex(lam))
        diff = d @ (tf_full - transfer_eval(rom, complex(lam)))
        worst = max(worst, np.linalg.norm(diff) / max(1.0, np.linalg.norm(d @ tf_full)))
    return worst


def real_and_pair_generator(rng):
    """Random non-normal 3x3 generator with one real eigenvalue and one pair."""
    re, im = rng.uniform(0.0, 0.5), rng.uniform(0.5, 5.0)
    d = block_diag_spectrum([rng.uniform(0.1, 1.0), complex(re, im), complex(re, -im)])
    t = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    return t @ d @ np.linalg.inv(t)


class TestTransferAt:
    def test_sorted_spectrum_matches_per_point_transfer_eval(self, rng):
        # eigenvalues lists the member with imag < 0 of each pair first;
        # transfer_at evaluates the points in the order given
        sys = random_stable_system(rng, n=5, m=2, p=3)
        mu = eigenvalues(block_diag_spectrum([0.5, 2j, -2j, 0.1 + 3j, 0.1 - 3j])).eigenvalues
        assert mu[0].imag < 0 < mu[1].imag and mu[2].imag < 0 < mu[3].imag
        values = moments.transfer_at(sys, mu)
        assert values.shape == (5, 3, 2)
        for point, value in zip(mu, values):
            assert np.array_equal(value, transfer_eval(sys, complex(point)))


class TestTangentialMismatch:
    """The vectorised mismatches against the per-eigenpair reference loops."""

    def test_equal_at_b_scaled_past_the_squares_range(self):
        # a ROM whose c is off by 1e-3: pinned columns of 2^530 overflow their squares
        def mismatch(scale):
            a, b = np.diag([-1.0, -2.0]), scale * np.ones((2, 1))
            full = StateSpaceModel(a=a, b=b, c=np.ones((1, 2)))
            rom = StateSpaceModel(a=a, b=b, c=np.full((1, 2), 1.0 + 1e-3))
            return tangential_mismatch_direct(full, rom, DirectInterpolant(s=[[0.0, 1.0], [-1.0, 0.0]], l=[[1.0, 0.0]]))

        assert mismatch(2.0**30) == mismatch(2.0**530) == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_reference_loops(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_stable_system(
            rng, n=int(rng.integers(4, 9)), m=int(rng.integers(2, 4)), p=int(rng.integers(2, 4))
        )
        di = DirectInterpolant(s=real_and_pair_generator(rng), l=rng.standard_normal((sys.m, 3)))
        si = SwappedInterpolant(q=real_and_pair_generator(rng), r=rng.standard_normal((3, sys.p)))
        rom = rom_direct(sys, di, rng.standard_normal((3, sys.m)))
        rom = StateSpaceModel(a=rom.a, b=rom.b, c=rom.c + 0.1 * rng.standard_normal(rom.c.shape))
        roms = rom_swapped(sys, si, rng.standard_normal((sys.p, 3)))
        roms = StateSpaceModel(a=roms.a, b=roms.b + 0.1 * rng.standard_normal(roms.b.shape), c=roms.c)
        for got, ref in [
            (tangential_mismatch_direct(sys, rom, di), reference_mismatch_direct(sys, rom, di)),
            (tangential_mismatch_swapped(sys, roms, si), reference_mismatch_swapped(sys, roms, si)),
        ]:
            assert ref > 1e-6
            assert abs(got - ref) <= 1e-12 * max(1.0, ref)

    def test_one_transfer_solve_per_conjugate_pair(self, monkeypatch, transfer_calls, rng):
        sys = random_stable_system(rng, n=6, m=2, p=2)
        osc = block_diag_spectrum([1j, -1j, 3j, -3j])  # two-pair oscillator
        di = DirectInterpolant(s=osc, l=rng.standard_normal((2, 4)))
        rom = rom_direct(sys, di, rng.standard_normal((4, 2)))
        solved, inverted = record_calls(monkeypatch, "solve"), record_calls(monkeypatch, "inv")
        factored = record_calls(monkeypatch, "cholesky")
        assert tangential_mismatch_direct(sys, rom, di) < 1e-8
        # the plant: its side is read off the memoized moment, so no 6 x 6 solve or inverse
        assert inverted == []
        assert [(shape, imag > 0) for shape, imag in solved] == [((4, 4), True)] * 2
        assert [shape for shape, _ in factored] == [(4, 4)] * 2
        # the ROM: one self-certifying transfer evaluation per upper point
        assert [called for called, _ in transfer_calls] == [rom, rom]
        assert all(point.imag > 0 for _, point in transfer_calls)

    def test_plant_side_forms_no_inverse(self, monkeypatch, rng):
        sys = random_stable_system(rng, n=6, m=2, p=2)
        di = DirectInterpolant(s=block_diag_spectrum([1j, -1j, 3j, -3j]), l=rng.standard_normal((2, 4)))
        si = SwappedInterpolant(q=block_diag_spectrum([2j, -2j]), r=rng.standard_normal((2, 2)))
        rom = rom_direct(sys, di, rng.standard_normal((4, 2)))
        roms = rom_swapped(sys, si, rng.standard_normal((2, 2)))
        inverted, solved = record_calls(monkeypatch, "inv"), record_calls(monkeypatch, "solve")
        tangential_mismatch_direct(sys, rom, di)
        tangential_mismatch_swapped(sys, roms, si)
        assert inverted == []
        assert [shape for shape, _ in solved] == [(4, 4)] * 2 + [(2, 2)]

    @pytest.mark.parametrize("side", ["direct", "swapped"])
    def test_overlap_refused_as_the_moment_is(self, side):
        # sigma(s) (sigma(q)) meets sigma(a) at +-2i; the ROM is any model
        a = block_diag_spectrum([-1.0, 2j, -2j])
        sys = StateSpaceModel(a=a, b=np.ones((3, 1)), c=np.ones((1, 3)))
        rom = StateSpaceModel(a=-np.eye(2), b=np.ones((2, 1)), c=np.ones((1, 2)))
        if side == "direct":
            check = lambda: tangential_mismatch_direct(
                sys, rom, DirectInterpolant(s=rotation_block(2.0), l=np.ones((1, 2)))
            )
        else:
            check = lambda: tangential_mismatch_swapped(
                sys, rom, SwappedInterpolant(q=rotation_block(2.0), r=np.ones((2, 1)))
            )
        with pytest.raises(ValueError, match="^sigma\\(a\\) and sigma\\(b\\) overlap"):
            check()


def record_calls(monkeypatch, name):
    """Record (shape, imag(mu)) for each later np.linalg.<name> call on a
    complex shifted matrix a - mu I of a real a."""
    calls, real = [], getattr(np.linalg, name)

    def spy(m, *args, **kwargs):
        if np.iscomplexobj(m) and m.ndim == 2 and m.shape[0] == m.shape[1]:
            calls.append((m.shape, -m[0, 0].imag))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls
