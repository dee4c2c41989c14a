import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    direct_generator_spec,
    random_stable_system,
    rotation_block,
    run_spec,
    swapped_filter_spec,
)
from momabs import sim, springmass
from momabs.abstraction import SimulationCertificate, StabilizedLink, synth_certificate
from momabs.linalg import StateSpaceModel, place_poles
from momabs.moments import DirectInterpolant, SwappedInterpolant, moment_direct, moment_swapped
from momabs.signals import SignalSpec, Term
from momabs.sim import (
    InterconnectionSpec,
    error_stats,
    fit_decay_rate,
    integrate,
    rk4_linear,
    run_hierarchical,
    run_m_direct,
    time_grid,
)


def expdecay_signal(dim, amplitude=1.0, rate=1.0):
    return SignalSpec(
        tuple((Term("expdecay", amplitude=amplitude * (i + 1), rate=rate),) for i in range(dim))
    )


class TestRk4Core:
    def test_scalar_exponential(self):
        times = time_grid(1.0, 1e-3)
        z = rk4_linear(np.array([[-1.0]]), None, None, [1.0], times)
        assert abs(z[-1, 0] - math.exp(-1.0)) < 1e-10

    def test_forced_response_accuracy(self):
        # z' = -z + sin t from 0 has solution (sin t - cos t + e^{-t}) / 2
        sig = SignalSpec(((Term("sin", amplitude=1.0, frequency=1.0),),))
        times = time_grid(5.0, 1e-3)
        z = rk4_linear(np.array([[-1.0]]), np.array([[1.0]]), sig, [0.0], times)
        want = 0.5 * (np.sin(times) - np.cos(times) + np.exp(-times))
        assert np.abs(z[:, 0] - want).max() < 1e-10

    def test_norm_drift_on_rotation(self):
        times = time_grid(10.0, 1e-3)
        z = rk4_linear(rotation_block(3.0), None, None, [1.0, 0.0], times)
        drift = np.abs(np.linalg.norm(z, axis=1) - 1.0).max()
        assert drift < 1e-8

    def test_divergence_raises_with_time(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="diverged at t="
        ):
            rk4_linear(np.array([[200.0]]), None, None, [1.0], time_grid(10.0, 0.1))

    def test_divergence_reports_first_nonfinite_time(self):
        # Only the third state grows.  Its factor per step is the RK4
        # stability polynomial at x = 0.1 * 100 = 10, 1 + x + x^2/2 + x^3/6
        # + x^4/24 = 644.33; 644.33^109 ~ 1e306 is finite and 644.33^110 ~
        # 1e309 overflows, so the first non-finite sample is step 110.
        a = np.diag([-1.0, -2.0, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^state diverged at t=11$"):
                rk4_linear(a, None, None, [1.0, 1.0, 1.0], time_grid(20.0, 0.1))


def stagewise_rk4(a, b, signal, z0, times):
    """Classic RK4 evaluated stage by stage: the reference for the propagator."""
    h = times[1] - times[0]
    w_grid = signal.eval(times)
    w_half = signal.eval(times[:-1] + 0.5 * h)
    z = np.asarray(z0, float)
    out = [z]
    for i in range(times.size - 1):
        f0, fh, f1 = b @ w_grid[i], b @ w_half[i], b @ w_grid[i + 1]
        k1 = a @ z + f0
        k2 = a @ (z + 0.5 * h * k1) + fh
        k3 = a @ (z + 0.5 * h * k2) + fh
        k4 = a @ (z + h * k3) + f1
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(z)
    return np.array(out)


FORCING_KINDS = ("sin", "square", "expdecay")


def random_forcing(rng, kinds):
    """One channel per entry of ``kinds``, each a single term of that kind."""
    return SignalSpec(
        tuple(
            (
                Term(
                    kind,
                    amplitude=float(rng.uniform(0.5, 3.0)),
                    frequency=float(rng.uniform(0.5, 10.0)),
                    phase=float(rng.uniform(0.0, 2 * math.pi)),
                    rate=float(rng.uniform(0.1, 2.0)),
                ),
            )
            for kind in kinds
        )
    )


def first_nonfinite_time(a, z0, times):
    """Grid time of the first non-finite state of the step-by-step loop
    z+ = T z, with T one stage-wise RK4 step applied to the identity."""
    n = a.shape[0]
    t_map = stagewise_rk4(a, np.zeros((n, 1)), SignalSpec.zero(1), np.eye(n), times[:2])[1]
    z = np.asarray(z0, float)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times[1:]:
            z = t_map @ z
            if not np.isfinite(z).all():
                return t
    return None


class TestRk4Propagator:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        kinds=st.lists(st.sampled_from(FORCING_KINDS), min_size=3, max_size=3),
    )
    def test_matches_stagewise_rk4(self, n, m, seed, kinds):
        rng = np.random.default_rng(seed)
        plant = random_stable_system(rng, n=n, m=m, p=1, margin=0.5)
        signal = random_forcing(rng, kinds[:m])
        z0 = rng.standard_normal(n)
        times = time_grid(3.0, 0.01)
        states = stagewise_rk4(plant.a, plant.b, signal, z0, times)
        for c in (None, rng.standard_normal((int(rng.integers(1, n)) if n > 1 else 1, n))):
            want = states if c is None else states @ c.T
            got = rk4_linear(plant.a, plant.b, signal, z0, times, c)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    # The propagator runs chunks of L = isqrt(N) steps and a tail of
    # N - L * (N // L) steps: 41 = 6 * 7 - 1 has a 5-step tail, 43 = 6 * 7 + 1
    # a 1-step tail, 49 none, 97 (prime) a 7-step tail.
    @pytest.mark.parametrize(
        "n, steps",
        [(5, 1), (5, 2), (5, 49), (5, 41), (5, 43), (5, 97), (200, 400)],
        ids=["one", "two", "square", "lc-minus-1", "lc-plus-1", "prime", "order-200"],
    )
    def test_matches_stagewise_at_chunk_edges(self, n, steps):
        rng = np.random.default_rng(steps)
        plant = random_stable_system(rng, n=n, m=3, p=1, margin=0.5)
        z0 = rng.standard_normal(n)
        times = 0.01 * np.arange(steps + 1)
        readouts = (None, rng.standard_normal((2, n)))
        for signal in (random_forcing(rng, FORCING_KINDS), SignalSpec.zero(3)):
            states = stagewise_rk4(plant.a, plant.b, signal, z0, times)
            for c in readouts:
                want = states if c is None else states @ c.T
                got = rk4_linear(plant.a, plant.b, signal, z0, times, c)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    # 400 steps with r = 9 forcing samples per step and q = 2 readouts: the
    # Toeplitz product would run in chunks of L = isqrt((401 q + 400 r) // (r q))
    # = 15, so that L^2 r q = 4 050 <= 4 402 readout and forcing floats; at
    # n = 200 it costs L r q = 270 < 2 n^2 flops per step and L^2 r q <= N n =
    # 80 000 floats; at n = 5, L r q = 270 >= 2 n^2 = 50, so the state sweep
    # runs, in chunks of L = isqrt(N) = 20.
    @pytest.mark.parametrize("n, toeplitz", [(200, True), (5, False)])
    def test_branch_rule(self, monkeypatch, n, toeplitz):
        calls = []
        real = sim._toeplitz_and_reach
        monkeypatch.setattr(sim, "_toeplitz_and_reach", lambda *args: calls.append(1) or real(*args))
        rng = np.random.default_rng(n)
        plant = random_stable_system(rng, n=n, m=3, p=1, margin=0.5)
        signal = random_forcing(rng, FORCING_KINDS)
        z0, c = rng.standard_normal(n), rng.standard_normal((2, n))
        times = 0.01 * np.arange(401)
        want = stagewise_rk4(plant.a, plant.b, signal, z0, times) @ c.T
        got = rk4_linear(plant.a, plant.b, signal, z0, times, c)
        assert len(calls) == int(toeplitz)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    # The growing state multiplies by the RK4 stability polynomial at
    # x = 0.1 * rate per step: 644.33 for rate 100, 2.7083 for rate 10.
    @pytest.mark.parametrize(
        "rates, z0, steps, rows",
        [
            ([-1.0, -2.0, 100.0], [1.0, 1.0, 1e260], 400, (1, 20)),
            ([-1.0, -2.0, 100.0], [1.0, 1.0, 1.0], 400, (21, 400)),
            ([-1.0, -2.0, 10.0], [1.0, 1.0, 1.0], 720, (703, 720)),
            # isqrt gives L = 110, but 644.33^110 ~ 1e309 would overflow T^L;
            # the norm bound takes L = 106, and the state overflows at step 110
            ([-1.0, 100.0], [1.0, 1.0], 12_100, (110, 110)),
        ],
        ids=["first-chunk", "later-chunk", "tail", "chunk-power-overflows"],
    )
    def test_divergence_time_matches_step_by_step(self, rates, z0, steps, rows):
        a = np.diag(rates)
        times = 0.1 * np.arange(steps + 1)
        want = first_nonfinite_time(a, np.array(z0), times)
        assert rows[0] <= round(want / 0.1) <= rows[1]
        # the second readout sees only the decaying states, never the growing one
        for c in (None, np.eye(len(rates))[:-1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"^state diverged at t={want:.6g}$"):
                    rk4_linear(a, None, None, z0, times, c)

    def test_nonfinite_start_raises_at_first_time(self):
        # the second readout does not see the non-finite start component
        times = 0.1 * np.arange(401)
        for c in (None, np.eye(3)[:-1]):
            with pytest.raises(ValueError, match=r"^state diverged at t=0$"):
                rk4_linear(-np.eye(3), None, None, [1.0, 1.0, np.nan], times, c)

    def test_unexcited_unstable_mode_stays_finite(self):
        # T^110 would overflow in its unstable entry, but the state never
        # enters that mode, so the step-by-step loop stays finite and so must this.
        a = np.diag([-1.0, 100.0])
        times = 0.1 * np.arange(12_101)
        got = rk4_linear(a, None, None, [1.0, 0.0], times)
        want = stagewise_rk4(a, np.zeros((2, 1)), SignalSpec.zero(1), np.array([1.0, 0.0]), times)
        assert np.abs(got - want).max() <= 1e-10
        assert not got[:, 1].any()

    # As above, 12 100 steps of diag(-1, 100) at h = 0.1, with ||T||_1 =
    # 644.33: L = floor(log(1e300) / log(644.33)) = 106 keeps T^L finite
    # where isqrt(12 100) = 110 would not.
    @pytest.mark.parametrize(
        "z0, diverges", [([1.0, 1.0], True), ([1.0, 0.0], False)],
        ids=["chunk-power-overflows", "unexcited"],
    )
    def test_chunk_power_stays_finite(self, monkeypatch, z0, diverges):
        powers = []
        real = np.linalg.matrix_power
        monkeypatch.setattr(
            np.linalg, "matrix_power", lambda m, k: powers.append((k, real(m, k))) or powers[-1][1]
        )
        times = 0.1 * np.arange(12_101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if diverges:
                with pytest.raises(ValueError, match=r"^state diverged at t=11$"):
                    rk4_linear(np.diag([-1.0, 100.0]), None, None, z0, times)
            else:
                rk4_linear(np.diag([-1.0, 100.0]), None, None, z0, times)
        assert [k for k, _ in powers] == [106]
        assert np.isfinite(powers[0][1]).all()


class TestReadoutMemory:
    @pytest.mark.parametrize("run", ["integrate", "run_hierarchical"])
    def test_no_state_trajectory_is_built(self, run):
        # One N x n float64 state trajectory would take 20 001 x 202 x 8 bytes
        # = 32.3 MB; a run reads out 6 columns and must stay below that.
        rng = np.random.default_rng(7)
        n, n_hat = 200, 2
        plant = random_stable_system(rng, n=n, m=2, p=2, margin=0.5)
        abstract = StateSpaceModel(
            a=rotation_block(1.5), b=rng.standard_normal((2, 2)), c=rng.standard_normal((2, 2))
        )
        cert = SimulationCertificate(
            p=rng.standard_normal((n, n_hat)), l_hat=rng.standard_normal((2, n_hat)),
            w=np.eye(n), lam=1.0, k=np.zeros((2, n)), r_hat=rng.standard_normal((2, 2)),
        )
        x0, xi0 = rng.standard_normal(n), rng.standard_normal(n_hat)
        v = random_forcing(rng, ("sin", "square"))
        spec = InterconnectionSpec(
            topology="hierarchical",
            models={"plant": plant, "abstract": abstract},
            links={"p": cert.p, "l_hat": cert.l_hat, "k": cert.k, "r_hat": cert.r_hat},
            initial={"x": x0, "xi": xi0},
            signal=v,
            horizon=20.0,
            step=1e-3,
        )
        tracemalloc.start()
        try:
            if run == "integrate":
                traj = integrate(spec)
            else:
                traj, _ = run_hierarchical(plant, abstract, cert, v, x0, xi0, 20.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.outputs["err"].shape == (20_001, 2)
        assert peak < 20_001 * (n + n_hat) * 8
        assert traj.readouts == {}


def _matrix_exp(a, t):
    vals, vecs = np.linalg.eig(a)
    return (vecs @ np.diag(np.exp(vals * t)) @ np.linalg.inv(vecs)).real


class TestRk4Order:
    def test_error_ratio_near_sixteen(self):
        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        z0 = np.array([1.0, -1.0])
        exact = _matrix_exp(a, 1.0) @ z0
        errs = []
        for h in (0.02, 0.01):
            z = rk4_linear(a, None, None, z0, time_grid(1.0, h))
            errs.append(np.linalg.norm(z[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0


class TestSpecValidation:
    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            InterconnectionSpec(
                topology="ring", models={}, links={}, initial={}, signal=SignalSpec.zero(1)
            )

    def test_nonpositive_step(self):
        with pytest.raises(ValueError, match="step"):
            InterconnectionSpec(
                topology="hierarchical",
                models={},
                links={},
                initial={},
                signal=SignalSpec.zero(1),
                step=0.0,
            )

    def test_horizon_shorter_than_step(self):
        with pytest.raises(ValueError, match="horizon"):
            InterconnectionSpec(
                topology="hierarchical",
                models={},
                links={},
                initial={},
                signal=SignalSpec.zero(1),
                horizon=1e-4,
                step=1e-3,
            )

    @pytest.mark.parametrize(
        "horizon, step, reason",
        [
            (math.inf, 1e-3, "horizon must be a finite whole number of steps"),
            (math.nan, 1e-3, "horizon must be a finite whole number of steps"),
            (1.0, math.nan, "step must be finite"),
            (1.0, math.inf, "step must be finite"),
            (1.0, 0.3, "horizon must be a finite whole number of steps"),
        ],
    )
    def test_bad_time_grid_names_both_values(self, horizon, step, reason):
        shown = f"(horizon={horizon:g}, step={step:g})"
        with pytest.raises(ValueError, match=f"^{reason}.*{re.escape(shown)}$"):
            InterconnectionSpec(
                topology="hierarchical",
                models={},
                links={},
                initial={},
                signal=SignalSpec.zero(1),
                horizon=horizon,
                step=step,
            )

    def test_trajectory_cap_is_exact(self, monkeypatch):
        # direct-generator with a 1-state generator and plant, unforced: 11
        # samples x 3 readouts (theta, y, err) x 8 bytes = 264 bytes
        spec = InterconnectionSpec(
            topology="direct-generator",
            models={"plant": StateSpaceModel(a=[[-1.0]], b=[[1.0]], c=[[1.0]])},
            links={"s": [[0.0]], "l": [[1.0]]},
            initial={"w": [1.0], "x": [0.0]},
            signal=SignalSpec.zero(1),
            horizon=1.0,
            step=0.1,
        )
        monkeypatch.setattr(sim, "MAX_TRAJECTORY_BYTES", 264)
        assert integrate(spec).times.size == 11
        monkeypatch.setattr(sim, "MAX_TRAJECTORY_BYTES", 263)
        shown = "grid of 11 samples (horizon=1, step=0.1) needs 264 bytes"
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}"):
            integrate(spec)

    @staticmethod
    def _order_22_spec(rng, width):
        """hierarchical on 400 steps: a 20-state plant under a 2-state
        abstraction, both with ``width`` outputs, and ``width`` abstract inputs."""
        plant = random_stable_system(rng, n=20, m=1, p=width, margin=0.5)
        abstract = StateSpaceModel(
            a=rotation_block(1.0), b=rng.standard_normal((2, width)),
            c=rng.standard_normal((width, 2)),
        )
        return InterconnectionSpec(
            topology="hierarchical",
            models={"plant": plant, "abstract": abstract},
            links={"p": rng.standard_normal((20, 2)), "l_hat": np.zeros((1, 2)),
                   "k": np.zeros((1, 20)), "r_hat": rng.standard_normal((1, width))},
            initial={"x": np.zeros(20), "xi": [1.0, 0.0]},
            signal=random_forcing(rng, ("sin",) * width),
            horizon=4.0,
            step=0.01,
        )

    # Both runs take N = 400 steps on n = 22 states.  One input and one
    # output give q = 3 readouts (y, psi, err) and r = 3 forcing samples per
    # step, 401 q + 400 r = 2 403 floats: the Toeplitz product runs in chunks
    # of L = isqrt(2 403 // (r q)) = 16, not isqrt(N) = 20 (L r q = 144 <
    # 2 n^2 = 968, L^2 r q = 2 304 <= N n = 8 800), so the run takes 2 403 +
    # L^2 r q = 4 707 floats, 37 656 bytes, below the 70 576 of one N x n
    # array.  Four of each give q = r = 12 and L = isqrt(9 612 // 144) = 8 with
    # L r q = 1 152 >= 2 n^2: the state sweep runs and takes 9 612 + N n =
    # 18 412 floats, 147 296 bytes.
    def test_trajectory_cap_counts_the_chosen_branch(self, monkeypatch, rng):
        toeplitz, sweep = self._order_22_spec(rng, 1), self._order_22_spec(rng, 4)
        chunks = []
        real = sim._toeplitz_and_reach
        monkeypatch.setattr(
            sim, "_toeplitz_and_reach", lambda *args: chunks.append(args[-1]) or real(*args)
        )
        monkeypatch.setattr(sim, "MAX_TRAJECTORY_BYTES", 37_656)
        assert integrate(toeplitz).times.size == 401
        assert chunks == [16]
        with pytest.raises(ValueError, match=r"^grid of 401 samples .* needs 147296 bytes"):
            integrate(sweep)
        monkeypatch.setattr(sim, "MAX_TRAJECTORY_BYTES", 147_296)
        assert integrate(sweep).times.size == 401
        assert chunks == [16]
        monkeypatch.setattr(sim, "MAX_TRAJECTORY_BYTES", 37_655)
        with pytest.raises(ValueError, match=r"^grid of 401 samples .* needs 37656 bytes"):
            integrate(toeplitz)

    def test_toeplitz_matrix_stays_near_the_readout_size(self):
        # an order-200 hierarchical run on 700 001 samples, with 6 readouts and
        # 6 forcing samples per step: planned, not run, to keep memory small
        n, q, r, steps = 202, 6, 6, 700_000
        grid = (steps + 1) * q + steps * r
        by_toeplitz, chunk, floats = sim._zero_state_plan(n, q, r, steps, math.isqrt(steps))
        assert by_toeplitz and chunk == math.isqrt(grid // (r * q)) < math.isqrt(steps)
        assert floats <= 2 * grid

    @pytest.mark.parametrize(
        "readouts, message",
        [
            ({"y": {"x": [[1.0]]}}, "readout names ['y'] are outputs of the direct-generator"),
            ({"err": {"x": [[1.0]]}}, "readout names ['err'] are outputs of the direct-generator"),
            ({"xx": {"xi": [[1.0]]}}, "readout 'xx' names unknown state blocks ['xi']"),
            ({"xx": {"x": [[1.0]], "w": [[1.0, 0.0]]}}, "readout 'xx' block 'w' must be 1x1"),
        ],
        ids=["output-name", "err-name", "unknown-block", "block-shape"],
    )
    def test_bad_readout_refused(self, readouts, message):
        spec = InterconnectionSpec(
            topology="direct-generator",
            models={"plant": StateSpaceModel(a=[[-1.0]], b=[[1.0]], c=[[1.0]])},
            links={"s": [[0.0]], "l": [[1.0]]},
            initial={"w": [1.0], "x": [0.0]},
            signal=SignalSpec.zero(1),
            horizon=1.0,
            step=0.1,
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            integrate(spec, readouts)

    def test_time_grid_covers_horizon(self):
        times = time_grid(2.0, 1e-3)
        assert times[0] == 0.0 and abs(times[-1] - 2.0) < 1e-12
        assert np.allclose(np.diff(times), 1e-3)


class TestDirectGenerator:
    def test_on_manifold_invariance(self, rng):
        plant = random_stable_system(rng, n=5, m=1, p=1)
        interp = DirectInterpolant(s=rotation_block(2.0), l=rng.standard_normal((1, 2)))
        sol = moment_direct(plant, interp)
        w0 = np.array([1.0, 0.0])
        traj, err = run_spec(direct_generator_spec(plant, interp, w0, sol.pi @ w0, horizon=5.0, step=1e-3))
        # starting on x = Pi w the output equals C Pi w for all time
        assert np.abs(err.out_err).max() < 1e-6
        assert traj.readouts == {}

    def test_transient_decays_to_manifold(self, rng):
        plant = random_stable_system(rng, n=4, m=1, p=1, margin=2.0)
        interp = DirectInterpolant(s=rotation_block(1.5), l=rng.standard_normal((1, 2)))
        traj, err = run_spec(direct_generator_spec(
            plant, interp, [1.0, 0.0], rng.standard_normal(4), horizon=10.0, step=2e-3
        ))
        assert err.sup_norm < 1e-4

    def test_springmass_limiting_outputs(self):
        plant = springmass.concrete()
        interp = DirectInterpolant(s=springmass.abstract().a, l=springmass.l_hat())
        traj, err = run_spec(direct_generator_spec(
            plant, interp, springmass.XI0, springmass.embedding_p() @ springmass.XI0,
            horizon=3.0, step=1e-3,
        ))
        assert np.abs(err.out_err).max() < 1e-6


class TestSwappedFilter:
    def test_filter_tracks_limiting_model(self, rng):
        plant = random_stable_system(rng, n=4, m=1, p=1, margin=1.5)
        interp = SwappedInterpolant(q=rotation_block(2.5), r=rng.standard_normal((2, 1)))
        u = expdecay_signal(1, amplitude=2.0, rate=1.0)
        traj, err = run_spec(swapped_filter_spec(plant, interp, u, horizon=8.0, step=2e-3))
        assert err.sup_norm < 1e-5
        assert traj.readouts == {}

    def test_wrong_input_dim_rejected(self, rng):
        plant = random_stable_system(rng, n=3, m=2, p=1)
        interp = SwappedInterpolant(q=rotation_block(1.0), r=np.ones((2, 1)))
        with pytest.raises(ValueError, match="dimension"):
            integrate(swapped_filter_spec(plant, interp, expdecay_signal(1)))

    def test_ill_posed_moment_refused_before_signal_dimension(self):
        # the assembler solves the moment of err, so sigma(q) = sigma(a) = {-1}
        # is refused before the 2-channel signal meets the 1-input plant
        spec = InterconnectionSpec(
            topology="swapped-filter", models={"plant": StateSpaceModel(a=[[-1.0]], b=[[1.0]], c=[[1.0]])},
            links={"q": [[-1.0]], "r": [[1.0]], "upsilon_b": [[1.0]]}, initial={}, signal=SignalSpec.zero(2),
        )
        with pytest.raises(ValueError, match=r"^sigma\(a\) and sigma\(b\) overlap: "):
            integrate(spec)


def springmass_certificate():
    plant = springmass.concrete()
    k = place_poles(plant.a, plant.b, springmass.closed_loop_target())
    return synth_certificate(
        plant, springmass.abstract(), k, l_hat=springmass.l_hat()
    )


class TestHierarchical:
    def test_error_matches_parallel_error_system(self):
        plant = springmass.concrete()
        abstract = springmass.abstract()
        cert = springmass_certificate()
        v = springmass.v_signal()
        spec = InterconnectionSpec(
            topology="hierarchical",
            models={"plant": plant, "abstract": abstract},
            links={"p": cert.p, "l_hat": cert.l_hat, "k": cert.k, "r_hat": cert.r_hat},
            initial={"x": springmass.X0, "xi": springmass.XI0},
            signal=v,
            horizon=4.0,
            step=1e-3,
        )
        traj = integrate(spec, {"e_s": {"x": np.eye(plant.n), "xi": -cert.p}})
        e_s = traj.readouts["e_s"]
        a_cl = plant.a + plant.b @ cert.k
        b_err = plant.b @ cert.r_hat - cert.p @ abstract.b
        e0 = np.asarray(springmass.X0) - cert.p @ np.asarray(springmass.XI0)
        e_parallel = rk4_linear(a_cl, b_err, v, e0, traj.times)
        assert np.abs(e_s - e_parallel).max() < 1e-6

    def test_output_error_within_guarantee(self):
        plant = springmass.concrete()
        abstract = springmass.abstract()
        cert = springmass_certificate()
        traj, err = run_hierarchical(
            plant, abstract, cert, springmass.v_signal(),
            springmass.X0, springmass.XI0, horizon=6.0, step=1e-3,
        )
        assert err.extras["sup_e_y"] <= err.extras["bound"] + 1e-9

    def test_free_response_decays(self):
        plant = springmass.concrete()
        abstract = springmass.abstract()
        cert = springmass_certificate()
        traj, err = run_hierarchical(
            plant, abstract, cert, SignalSpec.zero(4),
            springmass.X0, springmass.XI0, horizon=6.0, step=1e-3,
        )
        assert err.terminal_norm < 1e-3
        assert err.decay_rate is not None and err.decay_rate > 0.8 * cert.lam

    @staticmethod
    def _unit_gain_pair():
        """Plant x' = -x + u and abstraction xi' = -xi + v, both read out whole, with
        the certificate p = w = I, lam = 1, k = 0, r_hat = 2 I: b r_hat - p g = I
        gives a gamma gain of exactly 1."""
        plant = StateSpaceModel(a=-np.eye(2), b=np.eye(2), c=np.eye(2))
        abstract = StateSpaceModel(a=-np.eye(2), b=np.eye(2), c=np.eye(2))
        zero, eye = np.zeros((2, 2)), np.eye(2)
        cert = SimulationCertificate(p=eye, l_hat=zero, w=eye, lam=1.0, k=zero, r_hat=2 * eye)
        return plant, abstract, cert

    def test_bound_is_gain_times_sup_norm_of_v(self):
        v = SignalSpec(((Term("sin", amplitude=3.0, frequency=1.0),), (Term("constant", amplitude=4.0),)))
        _, err = run_hierarchical(*self._unit_gain_pair(), v, np.zeros(2), np.zeros(2), horizon=2.0, step=1e-3)
        assert abs(err.extras["bound"] - 5.0) < 1e-5

    def test_bound_of_a_huge_signal_is_finite(self):
        # the squares of v's rows pass the double range; their norms do not
        v = SignalSpec(((Term("constant", amplitude=1e200),),) * 2)
        _, err = run_hierarchical(*self._unit_gain_pair(), v, np.zeros(2), np.zeros(2), horizon=0.1, step=1e-3)
        assert err.extras["bound"] == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15, abs=0)

    def test_zero_signal_is_never_sampled(self, monkeypatch):
        calls = []
        monkeypatch.setattr(SignalSpec, "eval", lambda spec, t: calls.append(t))
        x0 = np.array([1.0, 0.0])
        _, err = run_hierarchical(*self._unit_gain_pair(), SignalSpec.zero(2), x0, np.zeros(2), 0.1, 1e-3)
        assert calls == []
        assert err.extras["bound"] == 1.0  # V(xi0, x0) = ||x0||

    def test_wrong_v_dim_rejected(self):
        plant = springmass.concrete()
        cert = springmass_certificate()
        with pytest.raises(ValueError, match="dimension"):
            run_hierarchical(
                plant, springmass.abstract(), cert, SignalSpec.zero(3),
                springmass.X0, springmass.XI0,
            )


class TestMDirect:
    def _design(self):
        from momabs.abstraction import design_abstraction

        plant = springmass.concrete()
        return plant, design_abstraction(plant, springmass.embedding_p())

    def test_consistent_start_exact_mirror(self, rng):
        plant, design = self._design()
        abstract = design.abstract_model()
        link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=np.zeros((4, 2)))
        x0 = rng.standard_normal(4)
        traj, err = run_m_direct(
            plant, abstract, link, design.m_map, springmass.u_signal(),
            x0, design.m_map @ x0, horizon=4.0, step=1e-3,
        )
        assert err.sup_norm < 1e-6
        assert list(traj.readouts) == ["eps_s"]
        assert np.abs(traj.readouts["eps_s"]).max() < 1e-6

    def test_stabilized_link_decays_and_matches_parallel(self):
        plant, design = self._design()
        abstract = design.abstract_model()
        k_hat = place_poles(design.f, design.g, springmass.abstract_target())
        link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=k_hat)
        traj, err = run_m_direct(
            plant, abstract, link, design.m_map, springmass.u_signal(),
            springmass.X0, springmass.XI0, horizon=6.0, step=1e-3,
        )
        assert err.sup_norm < 1e-3
        assert err.extras["parallel_gap_sup"] < 1e-6
        assert list(traj.readouts) == ["eps_s"]

    def test_inconsistent_start_without_stabilization_warns(self):
        plant, design = self._design()
        abstract = design.abstract_model()
        link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=np.zeros((4, 2)))
        with pytest.warns(UserWarning, match="not Hurwitz"):
            run_m_direct(
                plant, abstract, link, design.m_map, springmass.u_signal(),
                springmass.X0, springmass.XI0, horizon=1.0, step=1e-2,
            )


    def test_mis_sized_m_map_named(self):
        plant, design = self._design()
        link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=np.zeros((4, 2)))
        with pytest.raises(ValueError, match=re.escape("m_map must be 2x4, got (2, 3)")):
            run_m_direct(
                plant, design.abstract_model(), link, design.m_map[:, :3],
                springmass.u_signal(), springmass.X0, springmass.XI0,
            )

    def test_mis_sized_u_named(self):
        plant, design = self._design()
        link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="u has dimension 3, expected the plant's 2 inputs"):
            run_m_direct(
                plant, design.abstract_model(), link, design.m_map,
                SignalSpec.zero(3), springmass.X0, springmass.XI0,
            )


class TestMSwapped:
    @staticmethod
    def _prestabilized():
        """Spring-mass design and its auxiliary plant (a + b k, b, -(n + gamma k))."""
        from momabs.abstraction import design_abstraction

        plant = springmass.concrete()
        design = design_abstraction(plant, springmass.embedding_p())
        k = place_poles(plant.a, plant.b, springmass.closed_loop_target())
        n_s = design.n_map + design.gamma @ k
        return design, StateSpaceModel(a=plant.a + plant.b @ k, b=plant.b, c=-n_s)

    def test_prestabilized_springmass(self):
        design, plant_aux = self._prestabilized()
        traj, err = run_spec(swapped_filter_spec(
            plant_aux, SwappedInterpolant(q=design.f, r=design.g),
            expdecay_signal(2, amplitude=3.0, rate=0.8), horizon=8.0, step=2e-3,
        ))
        assert err.sup_norm < 1e-5

    def test_swapped_moment_map_is_m_map(self):
        # f Ups = Ups (a + b k) - g (n + gamma k) is solved by the M-relation map m
        design, plant_aux = self._prestabilized()
        interp = SwappedInterpolant(q=design.f, r=design.g)
        upsilon = moment_swapped(plant_aux, interp).upsilon
        assert np.abs(upsilon - design.m_map).max() < 1e-12


class TestMomentSolvedOnce:
    """A run's err reuses a moment already solved, such as a swapped filter's
    upsilon_b, via the moments memo."""

    def test_direct_generator(self, sylvester_calls, rng):
        plant = random_stable_system(rng, n=4, m=1, p=1)
        interp = DirectInterpolant(s=rotation_block(1.5), l=rng.standard_normal((1, 2)))
        integrate(direct_generator_spec(plant, interp, [1.0, 0.0], np.zeros(4), horizon=0.5, step=1e-2))
        assert len(sylvester_calls) == 1

    def test_swapped_filter(self, sylvester_calls, rng):
        plant = random_stable_system(rng, n=4, m=1, p=1)
        interp = SwappedInterpolant(q=rotation_block(2.5), r=rng.standard_normal((2, 1)))
        integrate(swapped_filter_spec(plant, interp, expdecay_signal(1), horizon=0.5, step=1e-2))
        assert len(sylvester_calls) == 1

    def test_m_swapped(self, sylvester_calls):
        design, plant_aux = TestMSwapped._prestabilized()
        interp = SwappedInterpolant(q=design.f, r=design.g)
        integrate(swapped_filter_spec(plant_aux, interp, expdecay_signal(2), horizon=0.5, step=1e-2))
        assert len(sylvester_calls) == 1

    def test_bare_integrate_after_moment(self, sylvester_calls, rng):
        plant = random_stable_system(rng, n=3, m=1, p=1)
        interp = DirectInterpolant(s=rotation_block(1.0), l=np.ones((1, 2)))
        moment_direct(plant, interp)
        spec = InterconnectionSpec(
            topology="direct-generator", models={"plant": plant},
            links={"s": interp.s.tolist(), "l": interp.l.tolist()},
            initial={"w": [1.0, 0.0], "x": np.zeros(3)}, signal=SignalSpec.zero(1),
            horizon=0.1, step=0.01,
        )
        integrate(spec)
        assert len(sylvester_calls) == 1

    def test_ill_posed_moment_refused(self):
        plant = StateSpaceModel(a=rotation_block(2.0), b=[[0.0], [1.0]], c=[[1.0, 0.0]])
        spec = InterconnectionSpec(
            topology="direct-generator", models={"plant": plant},
            links={"s": rotation_block(2.0), "l": [[1.0, 0.0]]},
            initial={"w": [1.0, 0.0], "x": [0.0, 0.0]}, signal=SignalSpec.zero(1),
            horizon=0.1, step=0.01,
        )
        with pytest.raises(ValueError, match="overlap"):
            integrate(spec)


class TestErrorStats:
    def test_decay_rate_of_exact_exponential(self):
        times = time_grid(5.0, 1e-2)
        norms = 3.0 * np.exp(-2.0 * times)
        rate = fit_decay_rate(times, norms)
        assert abs(rate - 2.0) < 0.05 * 2.0

    def test_floor_samples_ignored(self):
        times = time_grid(5.0, 1e-2)
        norms = np.exp(-20.0 * times)  # hits the floor well before the horizon
        rate = fit_decay_rate(times, norms)
        assert abs(rate - 20.0) < 0.05 * 20.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rate", [0.3, 2.0, 5.0, 40.0])  # from 5.0 the tail falls below the floor
    def test_matches_polyfit(self, seed, rate):
        r = np.random.default_rng(seed)
        times = time_grid(10.0, 1e-3)
        norms = r.uniform(0.5, 2.0) * np.exp(-rate * times + 0.1 * r.standard_normal(times.size))
        mask = norms > sim.DECAY_FLOOR
        assert mask.all() == (rate < 5.0)
        want = -np.polyfit(times[mask], np.log(norms[mask]), 1)[0]
        assert fit_decay_rate(times, norms) == pytest.approx(want, rel=1e-12, abs=0)

    def test_all_below_floor_gives_none(self):
        times = time_grid(1.0, 1e-2)
        assert fit_decay_rate(times, np.zeros_like(times)) is None

    def test_short_trailing_window_rejected(self):
        times = time_grid(0.02, 1e-3)
        errs = np.zeros_like(times)
        # 21 samples leave 7 after the settling share of the grid
        with pytest.raises(ValueError, match="trailing window"):
            error_stats(times, errs)


class TestSteadyStateError:
    def test_exact_predictor_gives_zero(self, rng):
        plant = random_stable_system(rng, n=3, m=1, p=1)
        interp = DirectInterpolant(s=rotation_block(2.0), l=rng.standard_normal((1, 2)))
        sol = moment_direct(plant, interp)
        w0 = np.array([1.0, 0.0])
        traj = integrate(direct_generator_spec(plant, interp, w0, sol.pi @ w0, horizon=2.0, step=1e-3))
        predicted = np.stack([_matrix_exp(interp.s, t) @ w0 for t in traj.times]) @ sol.moment.T
        assert np.abs(traj.outputs["y"] - predicted).max() < 1e-6
