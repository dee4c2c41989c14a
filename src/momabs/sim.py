"""Fixed-step simulation of the interconnection topologies.

All topologies reduce to a linear ODE z' = A z + B w(t) with an exogenous
signal w, integrated by classic 4th-order Runge-Kutta on a uniform grid, fully
deterministically.  For such an ODE one RK4 step is exactly the propagator
z+ = T z + C0 B w(t) + Ch B w(t + h/2) + C1 B w(t + h), with T the RK4 stability
polynomial of hA (the degree-4 Taylor polynomial of exp(hA)).  T and the C's are
built once per run, and the affine recurrence z+ = T z + f is evaluated in
chunks of L = isqrt(N) of the N steps: a zero-state sweep through all chunks
at once (L - 1 matrix-matrix products), a pass carrying the state from chunk to
chunk with T^L, a sweep adding T^j times each chunk's start state (L products),
and plain steps for the N mod L left over.  That is about 2 sqrt(N) Python
iterations instead of N, computing the same trajectory up to rounding.

TOPOLOGIES holds each interconnection's whole contract: field shapes, assembly
and output error, which every run writes as ``outputs["err"]``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .abstraction import (
    SimulationCertificate,
    StabilizedLink,
    gamma_gain,
    simulation_fn_value,
)
from .linalg import StateSpaceModel, as_matrix, as_vector, eigenvalues, excitable
from .moments import (
    DirectInterpolant,
    SwappedInterpolant,
    moment_direct,
    moment_swapped,
)
from .signals import SignalSpec

DEFAULT_STEP = 1e-3
DEFAULT_HORIZON = 10.0
SETTLE_FRACTION = 0.7  # error sups are taken over the grid's trailing 30 %
DECAY_FLOOR = 1e-12  # decay-rate fits ignore error norms at or below this
MAX_TRAJECTORY_BYTES = 2**30  # float64 samples x stacked state dimension

@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: dict
    outputs: dict


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
class Topology:
    """The whole contract of one interconnection.

    ``models``, ``links`` and ``initial`` map each field its spec must hold to
    its shape in named dimensions: a model's (n, m, p) sizes its a, b, c as
    (n, n), (n, m), (p, n); a link or initial state names its shape directly.
    The plant gives n, m, p and the abstraction n_hat, m_hat (and must share
    p); a free interpolant order k is bound by the first field that uses it.
    ``assemble(spec)`` gives (a_aug, b_aug, z0, state block sizes, output maps
    on the stacked state), and ``error(spec, traj)`` the output error per
    sample, the plant side minus its counterpart.
    """

    models: dict
    links: dict
    initial: dict
    assemble: Callable
    error: Callable


def _fit(dims: dict, name: str, got: tuple, want: tuple) -> None:
    """Bind each unbound dimension of ``want`` from ``got``, then refuse a mismatch."""
    for dim, size in zip(want, got):
        dims.setdefault(dim, size)
    expected = tuple(dims[dim] for dim in want)
    if got != expected:
        raise ValueError(f"{name} must have shape {expected}, got {got}")


@dataclass(frozen=True)
class InterconnectionSpec:
    """Declarative description of one simulation run.

    models maps role names to state-space models, links holds the coupling
    matrices the topology needs, initial maps state-block names to vectors;
    each must have the shape its entry in TOPOLOGIES gives.
    """

    topology: str
    models: dict
    links: dict
    initial: dict
    signal: SignalSpec
    horizon: float = DEFAULT_HORIZON
    step: float = DEFAULT_STEP

    def __post_init__(self):
        grid = f"horizon={self.horizon:g}, step={self.step:g}"
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive ({grid})")
        count = self.horizon / self.step
        if not (np.isfinite(count) and count >= 1 and abs(count - round(count)) <= 1e-9 * count):
            raise ValueError(f"horizon must be a finite whole number of steps, at least one ({grid})")
        topo = TOPOLOGIES.get(self.topology) if isinstance(self.topology, str) else None
        if topo is None:
            raise ValueError(f"unknown topology {self.topology!r}; known: {', '.join(TOPOLOGIES)}")
        for group in ("models", "links", "initial"):
            given = getattr(self, group)
            missing = [f"{group}.{name}" for name in getattr(topo, group) if name not in given]
            if missing:
                raise ValueError(f"topology {self.topology!r} needs {', '.join(missing)}")
        dims = {}
        for name, (n, m, p) in topo.models.items():
            model = self.models[name]
            for part, want in (("a", (n, n)), ("b", (n, m)), ("c", (p, n))):
                _fit(dims, f"models.{name}.{part}", getattr(model, part).shape, want)
        links = {name: as_matrix(self.links[name], f"links.{name}") for name in topo.links}
        initial = {name: as_vector(self.initial[name], f"initial.{name}") for name in topo.initial}
        for group, values in (("links", links), ("initial", initial)):
            for name, value in values.items():
                _fit(dims, f"{group}.{name}", value.shape, getattr(topo, group)[name])
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "initial", initial)


def time_grid(horizon: float, step: float) -> np.ndarray:
    count = int(round(horizon / step))
    return step * np.arange(count + 1)


def rk4_linear(a, b, signal: SignalSpec, z0, times: np.ndarray) -> np.ndarray:
    """RK4 on z' = a z + b w(t) as the chunked one-step propagator of the
    module docstring; returns states (len(times), n), raising ValueError at the
    first grid time whose state is not finite."""
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
    steps = times.size - 1
    with np.errstate(over="ignore", invalid="ignore"):
        # Halving L until T^L is finite keeps 0 * inf out of the boundary
        # pass, so a state that stays finite step by step stays finite here.
        chunk = math.isqrt(steps)
        t_chunk = np.linalg.matrix_power(t_map, chunk)
        while chunk > 1 and not np.isfinite(t_chunk).all():
            chunk //= 2
            t_chunk = np.linalg.matrix_power(t_map, chunk)
        count = steps // chunk
        v = out[1 : 1 + count * chunk].reshape(count, chunk, n)
        for j in range(1, chunk):
            v[:, j] += v[:, j - 1] @ t_map.T
        starts = np.empty((count, n))
        starts[0] = z0
        for c in range(1, count):
            starts[c] = v[c - 1, -1] + t_chunk @ starts[c - 1]
        for j in range(chunk):
            starts = starts @ t_map.T
            v[:, j] += starts
        for i in range(count * chunk, steps):
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
    """Assemble the coupled ODE for a topology and integrate it; the
    topology's output error lands in ``outputs["err"]``, after its outputs.
    A moment-based error (direct-generator, swapped-filter) raises ValueError
    where its Sylvester equation is ill-posed, and takes a moment the run_*
    helper already solved from the moments memo."""
    topo = TOPOLOGIES[spec.topology]
    a_aug, b_aug, z0, sizes, output_maps = topo.assemble(spec)
    if b_aug is not None and b_aug.shape[1] != spec.signal.dim:
        raise ValueError(
            f"signal dimension {spec.signal.dim} does not match the "
            f"{b_aug.shape[1]} inputs of the {spec.topology} interconnection"
        )
    samples = int(round(spec.horizon / spec.step)) + 1
    if samples * a_aug.shape[0] * 8 > MAX_TRAJECTORY_BYTES:
        raise ValueError(
            f"grid of {samples} samples (horizon={spec.horizon:g}, step={spec.step:g}) times "
            f"{a_aug.shape[0]} states exceeds the {MAX_TRAJECTORY_BYTES}-byte trajectory cap"
        )
    times = time_grid(spec.horizon, spec.step)
    z = rk4_linear(a_aug, b_aug, spec.signal, z0, times)
    outputs = {name: z @ cmat.T for name, cmat in output_maps.items()}
    traj = Trajectory(times=times, states=_blocks(z, sizes), outputs=outputs)
    outputs["err"] = topo.error(spec, traj)
    return traj


def _pad(mat: np.ndarray, sizes, block: str) -> np.ndarray:
    """Place ``mat`` in the columns of one state block of the stacked state."""
    out = np.zeros((mat.shape[0], sum(d for _, d in sizes)))
    _blocks(out, sizes)[block][:] = mat
    return out


def _assemble_direct_generator(spec):
    plant = spec.models["plant"]
    s, l = spec.links["s"], spec.links["l"]
    n_hat, n = s.shape[0], plant.n
    a_aug = np.block([[s, np.zeros((n_hat, n))], [plant.b @ l, plant.a]])
    z0 = np.concatenate([spec.initial["w"], spec.initial["x"]])
    sizes = [("w", n_hat), ("x", n)]
    outputs = {
        "theta": _pad(l, sizes, "w"),
        "y": _pad(plant.c, sizes, "x"),
    }
    return a_aug, None, z0, sizes, outputs


def _assemble_swapped_filter(spec):
    plant = spec.models["plant"]
    q, r, ub = spec.links["q"], spec.links["r"], spec.links["upsilon_b"]
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
    p, l_hat, k, r_hat = (spec.links[key] for key in ("p", "l_hat", "k", "r_hat"))
    n, n_hat = plant.n, abstract.n
    # u = r_hat v + l_hat xi + k (x - p xi)
    couple = plant.b @ l_hat - (plant.b @ k) @ p
    a_aug = np.block(
        [[abstract.a, np.zeros((n_hat, n))], [couple, plant.a + plant.b @ k]]
    )
    b_aug = np.vstack([abstract.b, plant.b @ r_hat])
    z0 = np.concatenate([spec.initial["xi"], spec.initial["x"]])
    sizes = [("xi", n_hat), ("x", n)]
    outputs = {
        "y": _pad(plant.c, sizes, "x"),
        "psi": _pad(abstract.c, sizes, "xi"),
    }
    return a_aug, b_aug, z0, sizes, outputs


def _assemble_m_direct(spec):
    plant = spec.models["plant"]
    abstract = spec.models["abstract"]
    n_map, gamma, k_hat, m_map = (spec.links[key] for key in ("n_map", "gamma", "k_hat", "m_map"))
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
    x0, xi0 = spec.initial["x"], spec.initial["xi"]
    z0 = np.concatenate([x0, xi0, xi0 - m_map @ x0])
    sizes = [("x", n), ("xi", n_hat), ("eps", n_hat)]
    outputs = {
        "y": _pad(plant.c, sizes, "x"),
        "psi": _pad(abstract.c, sizes, "xi"),
    }
    return a_aug, b_aug, z0, sizes, outputs


def _direct_generator_error(spec, traj):
    """y - C Pi w: the plant output against its steady-state prediction."""
    interp = DirectInterpolant(s=spec.links["s"], l=spec.links["l"])
    moment = moment_direct(spec.models["plant"], interp).moment
    return traj.outputs["y"] - traj.states["w"] @ moment.T


def _swapped_filter_error(spec, traj):
    """w - (zeta - Ups x): the filter state against the limiting error model."""
    interp = SwappedInterpolant(q=spec.links["q"], r=spec.links["r"])
    upsilon = moment_swapped(spec.models["plant"], interp).upsilon
    return traj.states["w"] - traj.states["zeta"] + traj.states["x"] @ upsilon.T


def _output_error(spec, traj):
    """y - psi: the plant output against the abstraction's."""
    return traj.outputs["y"] - traj.outputs["psi"]


PLANT = ("n", "m", "p")
ABSTRACT = ("n_hat", "m_hat", "p")

TOPOLOGIES = {
    "direct-generator": Topology(
        {"plant": PLANT}, {"s": ("k", "k"), "l": ("m", "k")}, {"w": ("k",), "x": ("n",)},
        _assemble_direct_generator, _direct_generator_error,
    ),
    "swapped-filter": Topology(
        {"plant": PLANT}, {"q": ("k", "k"), "r": ("k", "p"), "upsilon_b": ("k", "m")}, {},
        _assemble_swapped_filter, _swapped_filter_error,
    ),
    "hierarchical": Topology(
        {"plant": PLANT, "abstract": ABSTRACT},
        {"p": ("n", "n_hat"), "l_hat": ("m", "n_hat"), "k": ("m", "n"), "r_hat": ("m", "m_hat")},
        {"x": ("n",), "xi": ("n_hat",)}, _assemble_hierarchical, _output_error,
    ),
    "m-direct": Topology(
        {"plant": PLANT, "abstract": ABSTRACT},
        {"n_map": ("m_hat", "n"), "gamma": ("m_hat", "m"), "k_hat": ("m_hat", "n_hat"),
         "m_map": ("n_hat", "n")},
        {"x": ("n",), "xi": ("n_hat",)}, _assemble_m_direct, _output_error,
    ),
}


def fit_decay_rate(times: np.ndarray, norms: np.ndarray) -> float | None:
    """Least-squares exponential decay rate of a norm trace, ignoring samples
    at or below DECAY_FLOOR."""
    mask = norms > DECAY_FLOOR
    if mask.sum() < 2:
        return None
    coeffs = np.polyfit(times[mask], np.log(norms[mask]), 1)
    return float(-coeffs[0])


def error_stats(
    times: np.ndarray,
    state_err: np.ndarray,
    out_err: np.ndarray,
    extras: dict | None = None,
) -> ErrorTrace:
    """Error norms with their sup over the trailing 1 - SETTLE_FRACTION of the grid."""
    start = int(SETTLE_FRACTION * times.size)
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


def steady_state_error(traj: Trajectory, predictor) -> ErrorTrace:
    """Error of the trajectory output y against a closed-form predictor.

    ``predictor`` maps the time grid to an array of the same shape as the
    output; norms are reported over the trailing window only, the decay
    rate is fitted over the full horizon.
    """
    got = traj.outputs["y"]
    want = np.asarray(predictor(traj.times), float)
    if want.shape != got.shape:
        raise ValueError(f"predictor shape {want.shape} does not match output {got.shape}")
    errs = np.linalg.norm(got - want, axis=1)
    return error_stats(traj.times, errs, errs)


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
    state_err = np.linalg.norm(traj.states["x"] - traj.states["w"] @ sol.pi.T, axis=1)
    gen_spec = eigenvalues(interp.s)
    extras = {
        "plant_hurwitz": eigenvalues(plant.a).is_hurwitz(),
        "generator_neutral_simple": gen_spec.on_imaginary_axis() and gen_spec.all_simple,
        "excitable": excitable(interp.s, w0),
    }
    norms = np.linalg.norm(traj.outputs["err"], axis=1)
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
    norms = np.linalg.norm(traj.outputs["err"], axis=1)
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
) -> tuple[Trajectory, ErrorTrace]:
    """Abstract system driving the plant through the certificate interface.

    The error trace carries e_s = x - p xi and e_y = y - psi, plus the
    guaranteed bound max(V(xi0, x0), gamma(||v||_inf)).
    """
    spec = InterconnectionSpec(
        topology="hierarchical",
        models={"plant": plant, "abstract": abstract},
        links={
            "p": cert.p,
            "l_hat": cert.l_hat,
            "k": cert.k,
            "r_hat": cert.r_hat,
        },
        initial={"x": x0, "xi": xi0},
        signal=v,
        horizon=horizon,
        step=step,
    )
    traj = integrate(spec)
    e_s = traj.states["x"] - traj.states["xi"] @ cert.p.T
    norms = np.linalg.norm(traj.outputs["err"], axis=1)
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
    spec = InterconnectionSpec(
        topology="m-direct",
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
    m_map, x0, xi0 = spec.links["m_map"], spec.initial["x"], spec.initial["xi"]
    if np.allclose(link.k_hat, 0.0):
        mismatch_start = np.linalg.norm(xi0 - m_map @ x0)
        if mismatch_start > 1e-9 and not eigenvalues(abstract.a).is_hurwitz():
            warnings.warn(
                "xi(0) != m x(0) and the abstraction is not Hurwitz: "
                "steady-state matching is not guaranteed"
            )
    traj = integrate(spec)
    eps_s = traj.states["xi"] - traj.states["x"] @ m_map.T
    parallel_gap = np.linalg.norm(eps_s - traj.states["eps"], axis=1)
    extras = {"parallel_gap_sup": float(parallel_gap.max())}
    norms = np.linalg.norm(traj.outputs["err"], axis=1)
    return traj, error_stats(traj.times, np.linalg.norm(eps_s, axis=1), norms, extras=extras)


def run_m_swapped(
    plant_aux: StateSpaceModel,
    abstract: StateSpaceModel,
    u: SignalSpec,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
) -> tuple[Trajectory, ErrorTrace]:
    """The abstraction (f, g) as a swapped filter on the auxiliary plant
    output (c = -n there): :func:`run_swapped_filter` with (q, r) = (f, g).

    The Ups solving f Ups = Ups a + g c is the M-relation map m, so from rest
    and a decaying u the filter state tracks zeta - m x, with zeta the
    limiting model zeta' = f zeta + m b u.
    """
    if eigenvalues(plant_aux.a).max_real_part >= 0:
        raise ValueError("plant must be Hurwitz (pre-stabilize it if needed)")
    interp = SwappedInterpolant(q=abstract.a, r=abstract.b)
    return run_swapped_filter(plant_aux, interp, u, horizon, step)
