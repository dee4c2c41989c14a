"""Fixed-step simulation of the interconnection topologies.

All topologies reduce to a linear ODE z' = A z + B w(t) with an exogenous
signal w, integrated by classic 4th-order Runge-Kutta on a uniform grid, fully
deterministically.  For such an ODE one RK4 step is exactly the propagator
z+ = T z + C0 B w(t) + Ch B w(t + h/2) + C1 B w(t + h), with T the RK4 stability
polynomial of hA (the degree-4 Taylor polynomial of exp(hA)).  T and the C's are
built once per run; each step is then one matrix-vector product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .abstraction import (
    SimulationCertificate,
    StabilizedLink,
    gamma_gain,
    simulation_fn_value,
)
from .linalg import StateSpaceModel, as_matrix, as_vector, eigenvalues
from .moments import (
    DirectInterpolant,
    SwappedInterpolant,
    moment_direct,
    moment_swapped,
)
from .signals import SignalSpec

DEFAULT_STEP = 1e-3
DEFAULT_HORIZON = 10.0
DEFAULT_SETTLE_FRACTION = 0.7

TOPOLOGIES = (
    "direct-generator",
    "swapped-filter",
    "hierarchical",
    "m-direct",
    "m-direct-stabilized",
    "m-swapped",
)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: dict
    outputs: dict
    topology: str
    step: float


@dataclass(frozen=True)
class ErrorTrace:
    times: np.ndarray
    state_err: np.ndarray
    out_err: np.ndarray
    sup_norm: float
    terminal_norm: float
    decay_rate: float | None = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InterconnectionSpec:
    """Declarative description of one simulation run.

    models maps role names to state-space models, links holds the wiring
    matrices the topology needs, initial maps state-block names to vectors.
    """

    topology: str
    models: dict
    links: dict
    initial: dict
    signal: SignalSpec
    horizon: float = DEFAULT_HORIZON
    step: float = DEFAULT_STEP

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        grid = f"horizon={self.horizon:g}, step={self.step:g}"
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive ({grid})")
        count = self.horizon / self.step
        if not (np.isfinite(count) and count >= 1 and abs(count - round(count)) <= 1e-9 * count):
            raise ValueError(f"horizon must be a finite whole number of steps, at least one ({grid})")


def time_grid(horizon: float, step: float) -> np.ndarray:
    count = int(round(horizon / step))
    return step * np.arange(count + 1)


def rk4_linear(a, b, signal: SignalSpec, z0, times: np.ndarray) -> np.ndarray:
    """RK4 on z' = a z + b w(t) as the one-step propagator of the module
    docstring; returns states (len(times), n), raising ValueError at the first
    grid time whose state is not finite."""
    a = np.asarray(a, float)
    z0 = np.asarray(z0, float).reshape(-1)
    n = z0.size
    if b is None:
        b, signal = np.zeros((n, 1)), SignalSpec.zero(1)
    b = np.asarray(b, float)
    h = times[1] - times[0]

    def step(z, f0, fh, f1):
        """One classic RK4 step; linear in z and in the forcing samples."""
        k1 = a @ z + f0
        k2 = a @ (z + 0.5 * h * k1) + fh
        k3 = a @ (z + 0.5 * h * k2) + fh
        k4 = a @ (z + h * k3) + f1
        return z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    t_map = step(np.eye(n), 0.0, 0.0, 0.0)
    zb = np.zeros_like(b)
    g_map = np.hstack([step(zb, b, 0.0, 0.0), step(zb, 0.0, b, 0.0), step(zb, 0.0, 0.0, b)])
    w_grid = signal.eval(times)
    w_half = signal.eval(times[:-1] + 0.5 * h)
    out = np.empty((times.size, n))
    out[0] = z0
    np.matmul(np.hstack([w_grid[:-1], w_half, w_grid[1:]]), g_map.T, out=out[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(times.size - 1):
            out[i + 1] += t_map @ out[i]
        finite = np.isfinite(out.max(axis=1)) & np.isfinite(out.min(axis=1))
    if not finite.all():
        raise ValueError(f"state diverged at t={times[finite.argmin()]:.6g}")
    return out


def _blocks(states: np.ndarray, sizes: list[tuple[str, int]]) -> dict:
    out, i = {}, 0
    for name, dim in sizes:
        out[name] = states[:, i : i + dim]
        i += dim
    return out


def integrate(spec: InterconnectionSpec) -> Trajectory:
    """Assemble the coupled ODE for a topology and integrate it."""
    a_aug, b_aug, z0, sizes, output_maps = _assemble(spec)
    times = time_grid(spec.horizon, spec.step)
    z = rk4_linear(a_aug, b_aug, spec.signal, z0, times)
    states = _blocks(z, sizes)
    outputs = {name: z @ cmat.T for name, cmat in output_maps.items()}
    return Trajectory(times=times, states=states, outputs=outputs, topology=spec.topology, step=spec.step)


def _assemble(spec: InterconnectionSpec):
    """Return (a_aug, b_aug, z0, block sizes, output maps on the stacked state)."""
    t = spec.topology
    if t == "direct-generator":
        return _assemble_direct_generator(spec)
    if t == "swapped-filter":
        return _assemble_swapped_filter(spec)
    if t == "hierarchical":
        return _assemble_hierarchical(spec)
    if t in ("m-direct", "m-direct-stabilized"):
        return _assemble_m_direct(spec)
    return _assemble_m_swapped(spec)


def _pad(mat: np.ndarray, sizes, block: str) -> np.ndarray:
    """Place ``mat`` in the columns of one state block of the stacked state."""
    out = np.zeros((mat.shape[0], sum(d for _, d in sizes)))
    _blocks(out, sizes)[block][:] = mat
    return out


def _assemble_direct_generator(spec):
    plant = spec.models["plant"]
    s = as_matrix(spec.links["s"], "s")
    l = as_matrix(spec.links["l"], "l")
    n_hat, n = s.shape[0], plant.n
    a_aug = np.block([[s, np.zeros((n_hat, n))], [plant.b @ l, plant.a]])
    z0 = np.concatenate([as_vector(spec.initial["w"]), as_vector(spec.initial["x"])])
    sizes = [("w", n_hat), ("x", n)]
    outputs = {
        "theta": _pad(l, sizes, "w"),
        "y": _pad(plant.c, sizes, "x"),
    }
    return a_aug, None, z0, sizes, outputs


def _assemble_swapped_filter(spec):
    plant = spec.models["plant"]
    q = as_matrix(spec.links["q"], "q")
    r = as_matrix(spec.links["r"], "r")
    ub = as_matrix(spec.links["upsilon_b"], "upsilon_b")
    n, n_hat = plant.n, q.shape[0]
    zero = np.zeros((n_hat, n_hat))
    a_aug = np.block(
        [
            [plant.a, np.zeros((n, n_hat)), np.zeros((n, n_hat))],
            [r @ plant.c, q, zero],
            [np.zeros((n_hat, n)), zero, q],
        ]
    )
    b_aug = np.vstack([plant.b, np.zeros((n_hat, plant.m)), ub])
    z0 = np.zeros(n + 2 * n_hat)
    sizes = [("x", n), ("w", n_hat), ("zeta", n_hat)]
    outputs = {"y": _pad(plant.c, sizes, "x")}
    return a_aug, b_aug, z0, sizes, outputs


def _assemble_hierarchical(spec):
    plant = spec.models["plant"]
    abstract = spec.models["abstract"]
    p = as_matrix(spec.links["p"], "p")
    l_hat = as_matrix(spec.links["l_hat"], "l_hat")
    k = as_matrix(spec.links["k"], "k")
    r_hat = as_matrix(spec.links["r_hat"], "r_hat")
    wiring = spec.links.get("wiring", "interface")
    n, n_hat = plant.n, abstract.n
    if wiring == "cascade":
        # u = k x + (r_hat v + (l_hat - k p) xi)
        couple = plant.b @ (l_hat - k @ p)
    else:
        # u = r_hat v + l_hat xi + k (x - p xi)
        couple = plant.b @ l_hat - (plant.b @ k) @ p
    a_aug = np.block(
        [[abstract.a, np.zeros((n_hat, n))], [couple, plant.a + plant.b @ k]]
    )
    b_aug = np.vstack([abstract.b, plant.b @ r_hat])
    z0 = np.concatenate([as_vector(spec.initial["xi"]), as_vector(spec.initial["x"])])
    sizes = [("xi", n_hat), ("x", n)]
    outputs = {
        "psi": _pad(abstract.c, sizes, "xi"),
        "y": _pad(plant.c, sizes, "x"),
    }
    return a_aug, b_aug, z0, sizes, outputs


def _assemble_m_direct(spec):
    plant = spec.models["plant"]
    abstract = spec.models["abstract"]
    n_map = as_matrix(spec.links["n_map"], "n_map")
    gamma = as_matrix(spec.links["gamma"], "gamma")
    k_hat = as_matrix(spec.links["k_hat"], "k_hat")
    m_map = as_matrix(spec.links["m_map"], "m_map")
    n, n_hat = plant.n, abstract.n
    g = abstract.b
    # v = n_map x + gamma u + k_hat (xi - m_map x)
    a_aug = np.block(
        [
            [plant.a, np.zeros((n, n_hat)), np.zeros((n, n_hat))],
            [g @ n_map - (g @ k_hat) @ m_map, abstract.a + g @ k_hat, np.zeros((n_hat, n_hat))],
            [np.zeros((n_hat, n + n_hat)), abstract.a + g @ k_hat],
        ]
    )
    b_aug = np.vstack([plant.b, g @ gamma, np.zeros((n_hat, plant.m))])
    x0 = as_vector(spec.initial["x"])
    xi0 = as_vector(spec.initial["xi"])
    z0 = np.concatenate([x0, xi0, xi0 - m_map @ x0])
    sizes = [("x", n), ("xi", n_hat), ("eps", n_hat)]
    outputs = {
        "y": _pad(plant.c, sizes, "x"),
        "psi": _pad(abstract.c, sizes, "xi"),
    }
    return a_aug, b_aug, z0, sizes, outputs


def _assemble_m_swapped(spec):
    plant = spec.models["plant"]  # aux output: c = -n_map
    abstract = spec.models["abstract"]
    mb = as_matrix(spec.links["m_b"], "m_b")
    n, n_hat = plant.n, abstract.n
    a_aug = np.block(
        [
            [plant.a, np.zeros((n, 2 * n_hat))],
            [abstract.b @ plant.c, abstract.a, np.zeros((n_hat, n_hat))],
            [np.zeros((n_hat, n + n_hat)), abstract.a],
        ]
    )
    b_aug = np.vstack([plant.b, np.zeros((n_hat, plant.m)), mb])
    z0 = np.zeros(n + 2 * n_hat)
    sizes = [("x", n), ("xi", n_hat), ("zeta", n_hat)]
    outputs = {"ystar": _pad(plant.c, sizes, "x")}
    return a_aug, b_aug, z0, sizes, outputs


def fit_decay_rate(times: np.ndarray, norms: np.ndarray, floor: float = 1e-12) -> float | None:
    """Least-squares exponential decay rate of a norm trace, ignoring samples
    at or below the floor."""
    mask = norms > floor
    if mask.sum() < 2:
        return None
    coeffs = np.polyfit(times[mask], np.log(norms[mask]), 1)
    return float(-coeffs[0])


def error_stats(
    times: np.ndarray,
    state_err: np.ndarray,
    out_err: np.ndarray,
    settle_fraction: float = DEFAULT_SETTLE_FRACTION,
    extras: dict | None = None,
) -> ErrorTrace:
    if not 0 < settle_fraction < 1:
        raise ValueError("settle_fraction must lie in (0, 1)")
    start = int(settle_fraction * times.size)
    if times.size - start < 10:
        raise ValueError("trailing window has fewer than 10 samples")
    window = out_err[start:]
    return ErrorTrace(
        times=times,
        state_err=state_err,
        out_err=out_err,
        sup_norm=float(window.max()),
        terminal_norm=float(out_err[-1]),
        decay_rate=fit_decay_rate(times, out_err),
        extras=extras or {},
    )


def steady_state_error(
    traj: Trajectory,
    predictor,
    settle_fraction: float = DEFAULT_SETTLE_FRACTION,
    output: str = "y",
) -> ErrorTrace:
    """Error of one trajectory output against a closed-form predictor.

    ``predictor`` maps the time grid to an array of the same shape as the
    output; norms are reported over the trailing window only, the decay
    rate is fitted over the full horizon.
    """
    got = traj.outputs[output]
    want = np.asarray(predictor(traj.times), float)
    if want.shape != got.shape:
        raise ValueError(f"predictor shape {want.shape} does not match output {got.shape}")
    errs = np.linalg.norm(got - want, axis=1)
    return error_stats(traj.times, errs, errs, settle_fraction)


def run_direct_generator(
    plant: StateSpaceModel,
    interp: DirectInterpolant,
    w0,
    x0,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
) -> tuple[Trajectory, ErrorTrace]:
    """Drive the plant by the signal generator w' = s w, u = l w and compare
    the plant output against the steady-state prediction C Pi w."""
    from .linalg import excitable

    sol = moment_direct(plant, interp)
    spec = InterconnectionSpec(
        topology="direct-generator",
        models={"plant": plant},
        links={"s": interp.s, "l": interp.l},
        initial={"w": w0, "x": x0},
        signal=SignalSpec.zero(1),
        horizon=horizon,
        step=step,
    )
    traj = integrate(spec)
    err = traj.outputs["y"] - traj.states["w"] @ sol.moment.T
    norms = np.linalg.norm(err, axis=1)
    state_err = np.linalg.norm(traj.states["x"] - traj.states["w"] @ sol.pi.T, axis=1)
    gen_spec = eigenvalues(interp.s)
    extras = {
        "plant_hurwitz": eigenvalues(plant.a).is_hurwitz(),
        "generator_neutral_simple": gen_spec.on_imaginary_axis() and gen_spec.all_simple,
        "excitable": excitable(interp.s, w0),
    }
    return traj, error_stats(traj.times, state_err, norms, extras=extras)


def run_swapped_filter(
    plant: StateSpaceModel,
    interp: SwappedInterpolant,
    u: SignalSpec,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
) -> tuple[Trajectory, ErrorTrace]:
    """Filter the plant output through w' = q w + r y from rest, tracking the
    limiting error model zeta' = q zeta + Ups b u in parallel."""
    if not u.is_decaying():
        raise ValueError("input signal must decay exponentially")
    if u.dim != plant.m:
        raise ValueError("input signal dimension does not match plant")
    sol = moment_swapped(plant, interp)
    spec = InterconnectionSpec(
        topology="swapped-filter",
        models={"plant": plant},
        links={"q": interp.q, "r": interp.r, "upsilon_b": sol.moment},
        initial={},
        signal=u,
        horizon=horizon,
        step=step,
    )
    traj = integrate(spec)
    # w should track zeta - Ups x
    err = traj.states["w"] - traj.states["zeta"] + traj.states["x"] @ sol.upsilon.T
    norms = np.linalg.norm(err, axis=1)
    return traj, error_stats(traj.times, norms, norms)


def run_hierarchical(
    plant: StateSpaceModel,
    abstract: StateSpaceModel,
    cert: SimulationCertificate,
    v: SignalSpec,
    x0,
    xi0,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
    wiring: str = "interface",
) -> tuple[Trajectory, ErrorTrace]:
    """Abstract system driving the plant through the certificate interface.

    The error trace carries e_s = x - p xi and e_y = y - psi, plus the
    guaranteed bound max(V(xi0, x0), gamma(||v||_inf)).
    """
    if v.dim != abstract.m:
        raise ValueError("v dimension does not match the abstract input")
    spec = InterconnectionSpec(
        topology="hierarchical",
        models={"plant": plant, "abstract": abstract},
        links={
            "p": cert.p,
            "l_hat": cert.l_hat,
            "k": cert.k,
            "r_hat": cert.r_hat,
            "wiring": wiring,
        },
        initial={"x": x0, "xi": xi0},
        signal=v,
        horizon=horizon,
        step=step,
    )
    traj = integrate(spec)
    e_s = traj.states["x"] - traj.states["xi"] @ cert.p.T
    e_y = traj.outputs["y"] - traj.outputs["psi"]
    norms = np.linalg.norm(e_y, axis=1)
    gain = gamma_gain(cert, plant.b, abstract.b)
    bound = max(
        simulation_fn_value(cert, xi0, x0), gain * v.sup_norm(traj.times)
    )
    extras = {
        "bound": bound,
        "sup_e_y": float(norms.max()),
        "gamma_gain": gain,
        "lambda": cert.lam,
    }
    return traj, error_stats(
        traj.times, np.linalg.norm(e_s, axis=1), norms, extras=extras
    )


def run_m_direct(
    plant: StateSpaceModel,
    abstract: StateSpaceModel,
    link: StabilizedLink,
    m_map,
    u: SignalSpec,
    x0,
    xi0,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
) -> tuple[Trajectory, ErrorTrace]:
    """Plant driving the abstraction through v = n x + gamma u + k_hat (xi - m x).

    The observed eps_s = xi - m x is compared against a parallel integration
    of eps' = (f + g k_hat) eps; the mismatch sup-norm lands in extras.
    """
    m_map = as_matrix(m_map, "m_map")
    if u.dim != plant.m:
        raise ValueError("u dimension does not match plant input")
    x0 = as_vector(x0)
    xi0 = as_vector(xi0)
    if np.allclose(link.k_hat, 0.0):
        mismatch_start = np.linalg.norm(xi0 - m_map @ x0)
        if mismatch_start > 1e-9 and not eigenvalues(abstract.a).is_hurwitz():
            warnings.warn(
                "xi(0) != m x(0) and the abstraction is not Hurwitz: "
                "steady-state matching is not guaranteed"
            )
    spec = InterconnectionSpec(
        topology="m-direct" if np.allclose(link.k_hat, 0.0) else "m-direct-stabilized",
        models={"plant": plant, "abstract": abstract},
        links={
            "n_map": link.n_map,
            "gamma": link.gamma,
            "k_hat": link.k_hat,
            "m_map": m_map,
        },
        initial={"x": x0, "xi": xi0},
        signal=u,
        horizon=horizon,
        step=step,
    )
    traj = integrate(spec)
    eps_s = traj.states["xi"] - traj.states["x"] @ m_map.T
    eps_y = traj.outputs["psi"] - traj.outputs["y"]
    parallel_gap = np.linalg.norm(eps_s - traj.states["eps"], axis=1)
    extras = {"parallel_gap_sup": float(parallel_gap.max())}
    return traj, error_stats(
        traj.times,
        np.linalg.norm(eps_s, axis=1),
        np.linalg.norm(eps_y, axis=1),
        extras=extras,
    )


def run_m_swapped(
    plant_aux: StateSpaceModel,
    abstract: StateSpaceModel,
    m_b,
    m_map,
    u: SignalSpec,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
) -> tuple[Trajectory, ErrorTrace]:
    """Abstraction as a filter on the auxiliary plant output (c = -n there).

    From rest and a decaying u, xi tracks zeta - m x with zeta the limiting
    model zeta' = f zeta + m b u.
    """
    if not u.is_decaying():
        raise ValueError("input signal must decay exponentially")
    if eigenvalues(plant_aux.a).max_real_part >= 0:
        raise ValueError("plant must be Hurwitz (pre-stabilize it if needed)")
    m_map = as_matrix(m_map, "m_map")
    spec = InterconnectionSpec(
        topology="m-swapped",
        models={"plant": plant_aux, "abstract": abstract},
        links={"m_b": as_matrix(m_b, "m_b")},
        initial={},
        signal=u,
        horizon=horizon,
        step=step,
    )
    traj = integrate(spec)
    err = traj.states["xi"] - traj.states["zeta"] + traj.states["x"] @ m_map.T
    norms = np.linalg.norm(err, axis=1)
    return traj, error_stats(traj.times, norms, norms)
