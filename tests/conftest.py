import numpy as np
import pytest

from momabs import moments
from momabs.abstraction import simulation_fn_value
from momabs.linalg import StateSpaceModel, eigenvalues, spectra_disjoint
from momabs.signals import SignalSpec
from momabs.sim import TOPOLOGIES, InterconnectionSpec, error_stats, integrate


@pytest.fixture
def sylvester_calls(monkeypatch):
    """Empty the moment memo and record every Sylvester solve that moments makes."""
    monkeypatch.setattr(moments, "_moments", [])
    calls, real_solve = [], moments.solve_sylvester

    def spy(a, b, c):
        calls.append((a.shape, b.shape))
        return real_solve(a, b, c)

    monkeypatch.setattr(moments, "solve_sylvester", spy)
    return calls


@pytest.fixture
def scipy_linalg():
    # any ImportError skips, so an installed but unimportable scipy skips too
    return pytest.importorskip("scipy.linalg", exc_type=ImportError)


@pytest.fixture
def scipy_signal():
    return pytest.importorskip("scipy.signal", exc_type=ImportError)


@pytest.fixture
def transfer_calls(monkeypatch):
    """Record the system and point of every transfer_eval that moments makes."""
    calls, real_eval = [], moments.transfer_eval

    def spy(sys, s):
        calls.append((sys, s))
        return real_eval(sys, s)

    monkeypatch.setattr(moments, "transfer_eval", spy)
    return calls


def random_stable_system(rng, n=4, m=2, p=2, margin=1.0):
    """Random Hurwitz system with a spectral abscissa at most -margin."""
    a0 = rng.standard_normal((n, n))
    shift = eigenvalues(a0).max_real_part + margin
    a = a0 - shift * np.eye(n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return StateSpaceModel(a=a, b=b, c=c)


def non_normal_stable_system(rng, n=4, m=2, p=2, cond=10.0):
    """Random Hurwitz system a = v d v^-1 whose eigenvector basis v has
    condition number ``cond`` (for n > 1); d has complex pairs with real
    parts in [-2, -0.2] and imaginary parts in [0.5, 5]."""
    d = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        re, im = -rng.uniform(0.2, 2.0), rng.uniform(0.5, 5.0)
        d[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
    if n % 2:
        d[-1, -1] = -rng.uniform(0.2, 2.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.geomspace(1.0, cond, n)
    v, v_inv = (u * sv) @ w, (w.T / sv) @ u.T
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return StateSpaceModel(a=v @ d @ v_inv, b=b, c=c)


def rotation_block(freq):
    """2x2 generator with spectrum {+i freq, -i freq}."""
    return np.array([[0.0, freq], [-freq, 0.0]])


def random_direct_interpolant(rng, sys, freq=None):
    from momabs.moments import DirectInterpolant

    freq = freq if freq is not None else float(rng.uniform(0.5, 5.0))
    s = rotation_block(freq)
    while True:
        l = rng.standard_normal((sys.m, 2))
        if spectra_disjoint(s, sys.a) and np.linalg.norm(l) > 0.1:
            return DirectInterpolant(s=s, l=l)


def random_swapped_interpolant(rng, sys, freq=None):
    from momabs.moments import SwappedInterpolant

    freq = freq if freq is not None else float(rng.uniform(0.5, 5.0))
    q = rotation_block(freq)
    while True:
        r = rng.standard_normal((2, sys.p))
        if spectra_disjoint(q, sys.a) and np.linalg.norm(r) > 0.1:
            return SwappedInterpolant(q=q, r=r)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def direct_generator_spec(plant, interp, w0, x0, **grid):
    """The plant driven by the signal generator w' = s w, u = l w."""
    return InterconnectionSpec(
        topology="direct-generator", models={"plant": plant},
        links={"s": interp.s, "l": interp.l}, initial={"w": w0, "x": x0},
        signal=SignalSpec.zero(1), **grid,
    )


def swapped_filter_spec(plant, interp, u, **grid):
    """The plant output filtered by w' = q w + r y from rest, next to the
    limiting error model zeta' = q zeta + Ups b u (upsilon_b the swapped moment)."""
    upsilon_b = moments.moment_swapped(plant, interp).moment
    return InterconnectionSpec(
        topology="swapped-filter", models={"plant": plant},
        links={"q": interp.q, "r": interp.r, "upsilon_b": upsilon_b},
        initial={}, signal=u, **grid,
    )


def run_spec(spec):
    """integrate(spec) and the error_stats of its err norms."""
    traj = integrate(spec)
    return traj, error_stats(traj.times, np.linalg.norm(traj.outputs["err"], axis=1))


def hierarchical_field(plant, abstract, cert):
    """(v, xi, x) -> (xi', x') from the hierarchical topology's assembled system."""
    spec = InterconnectionSpec(
        topology="hierarchical", models={"plant": plant, "abstract": abstract},
        links={"p": cert.p, "l_hat": cert.l_hat, "k": cert.k, "r_hat": cert.r_hat},
        initial={"x": np.zeros(plant.n), "xi": np.zeros(abstract.n)},
        signal=SignalSpec.zero(abstract.m),
    )
    a_aug, b_aug, _, sizes, _ = TOPOLOGIES["hierarchical"].assemble(spec)

    def field(v, xi, x):
        z_dot = a_aug @ np.concatenate([xi, x]) + b_aug @ v
        return z_dot[: sizes["xi"]], z_dot[sizes["xi"] :]

    return field


def simulation_fn_rate(cert, field, v, xi, x):
    """dV/dt = e^T w e' / V along ``field``, with e = p xi - x."""
    xi_dot, x_dot = field(v, xi, x)
    e = cert.p @ xi - x
    return float(e @ cert.w @ (cert.p @ xi_dot - x_dot) / simulation_fn_value(cert, xi, x))
