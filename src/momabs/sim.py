"""Fixed-step simulation of the interconnection topologies.

Every topology reduces to a linear ODE z' = A z + B w(t) with an exogenous
signal w, integrated deterministically by classic RK4 on a uniform grid at
readout level (:func:`rk4_linear`).  TOPOLOGIES holds each interconnection's
fields and its one assembler, which also gives its output error, the last
output ``err``; :func:`integrate` runs any spec, as ``momabs simulate`` does.
The paper example's two runs, run_hierarchical and run_m_direct, read out
only that err and the topology's outputs, except run_m_direct's eps_s = xi - m x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .abstraction import (
    SimulationCertificate,
    StabilizedLink,
    gamma_gain,
    simulation_fn_value,
)
from .linalg import StateSpaceModel, _norm, _require_shapes, as_matrix, as_vector, eigenvalues
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
MAX_TRAJECTORY_BYTES = 2**30  # the float64 arrays a run allocates on its grid
MAX_CHUNK_GROWTH = 1e300  # bound on ||T^L||_1 that fixes the chunk length L

@dataclass(frozen=True)
class Trajectory:
    """Readouts on the time grid: ``outputs`` (the topology's, ``err`` last)
    are what a run writes; ``readouts`` are the extra ones its caller asked for."""

    times: np.ndarray
    outputs: dict
    readouts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorTrace:
    """A run's ``err`` norms on its grid and what its checks read; ``extras``
    is per run_* helper."""

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
    ``assemble(spec)`` gives (a_aug, b_aug, z0, state block sizes {name: dim}
    in stacking order, outputs {name: {block: matrix}}), the last output
    ``err``, the plant side minus its counterpart.
    """

    models: dict
    links: dict
    initial: dict
    assemble: Callable


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
        _require_shapes(dims, **{
            f"models.{name}.{part}": (getattr(self.models[name], part), want)
            for name, (n, m, p) in topo.models.items()
            for part, want in (("a", (n, n)), ("b", (n, m)), ("c", (p, n)))
        })
        links = {name: as_matrix(self.links[name], f"links.{name}") for name in topo.links}
        initial = {name: as_vector(self.initial[name], f"initial.{name}") for name in topo.initial}
        _require_shapes(dims, **{f"links.{name}": (value, topo.links[name]) for name, value in links.items()},
                        **{f"initial.{name}": (value, topo.initial[name]) for name, value in initial.items()})
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "initial", initial)


def time_grid(horizon: float, step: float) -> np.ndarray:
    count = int(round(horizon / step))
    return step * np.arange(count + 1)


def rk4_linear(a, b, signal: SignalSpec, z0, times: np.ndarray, c=None) -> np.ndarray:
    """RK4 on z' = a z + b w(t); returns the readouts c z, shape (len(times), q),
    with c = None the identity, raising ValueError at the first grid time whose
    state is not finite.

    One RK4 step is exactly z+ = T z + G F, with T the degree-4 Taylor
    polynomial of exp(h a) and F = (w(t), w(t + h/2), w(t + h)).  The N steps
    run in chunks of L = isqrt(N), shorter where ||T||_1^L would pass
    MAX_CHUNK_GROWTH: the free responses c T^j z_start of all chunks are one
    product, the zero-state response is the Toeplitz product or the state
    sweep that :func:`_zero_state_plan` picks, and the chunk-boundary states
    come from T^L.  A non-finite boundary state or readout is replayed by
    plain steps from the last finite boundary."""
    a = np.asarray(a, float)
    z0 = np.asarray(z0, float).reshape(-1)
    if not np.isfinite(z0).all():
        raise ValueError(f"state diverged at t={times[0]:.6g}")
    n = z0.size
    c = np.eye(n) if c is None else np.asarray(c, float)
    q = c.shape[0]
    forced = b is not None and not signal.is_zero()
    r = 3 * signal.dim if forced else 0
    h = times[1] - times[0]
    steps = times.size - 1

    def step(z, f0, fh, f1):
        """One classic RK4 step; linear in z and in the forcing samples."""
        k1 = a @ z + f0
        k2 = a @ (z + 0.5 * h * k1) + fh
        k3 = a @ (z + 0.5 * h * k2) + fh
        k4 = a @ (z + h * k3) + f1
        return z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    if forced:
        w_grid = signal.eval(times)
        forcing = np.hstack([w_grid[:-1], signal.eval(times[:-1] + 0.5 * h), w_grid[1:]])
        del w_grid
    out = np.empty((times.size, q))
    out[0] = c @ z0
    with np.errstate(over="ignore", invalid="ignore"):  # T and G may overflow for a huge h a
        t_map = step(np.eye(n), 0.0, 0.0, 0.0)
        if forced:
            b = np.asarray(b, float)
            zb = np.zeros_like(b)
            g_map = np.hstack([step(zb, b, 0.0, 0.0), step(zb, 0.0, b, 0.0), step(zb, 0.0, 0.0, b)])
        chunk = math.isqrt(steps)
        growth = np.linalg.norm(t_map, 1)
        if growth > 1.0:  # ||T^L||_1 <= ||T||_1^L <= MAX_CHUNK_GROWTH keeps T^L finite
            chunk = max(1, min(chunk, int(math.log(MAX_CHUNK_GROWTH) / math.log(growth))))
        by_toeplitz, chunk, _ = _zero_state_plan(n, q, r, steps, chunk)
        t_chunk = np.linalg.matrix_power(t_map, chunk)
        count = steps // chunk
        rows = out[1 : 1 + count * chunk].reshape(count, chunk * q)
        ends = np.zeros((count, n))  # zero-state response at each chunk's end
        if by_toeplitz:
            per_chunk = forcing[: count * chunk].reshape(count, chunk * r)
            toeplitz, reach = _toeplitz_and_reach(t_map, g_map, c, chunk)
            ends = per_chunk @ reach
        elif forced:
            v = (forcing[: count * chunk] @ g_map.T).reshape(count, chunk, n)
            for j in range(1, chunk):
                v[:, j] += v[:, j - 1] @ t_map.T
            ends = v[:, -1]
        starts = np.empty((count + 1, n))
        starts[0] = z0
        for i in range(count):
            starts[i + 1] = t_chunk @ starts[i] + ends[i]
        # the free response, the start states times [c T ... c T^L], then the
        # zero-state response on top of it
        obs = np.empty((n, chunk, q))  # obs[:, j] = (c T^(j+1))^T
        np.matmul(t_map.T, c.T, out=obs[:, 0])
        for j in range(1, chunk):
            np.matmul(t_map.T, obs[:, j - 1], out=obs[:, j])
        np.matmul(starts[:count], obs.reshape(n, chunk * q), out=rows)
        del obs
        if by_toeplitz:
            rows += per_chunk @ toeplitz
        elif forced:
            rows.reshape(count, chunk, q)[:] += v @ c.T
        # Replay plain steps from the last boundary before the first chunk
        # whose end state or readouts are not finite; T^L is finite by the
        # chunk length's bound, so only a diverging state or readout gets here.
        bad = ~(_finite_rows(starts[1:]) & _finite_rows(rows))
        first = int(bad.argmax()) if bad.any() else count
        z = starts[first]
        for i in range(first * chunk, steps):
            z = t_map @ z + (g_map @ forcing[i] if forced else 0.0)
            if not np.isfinite(z).all():
                raise ValueError(f"state diverged at t={times[i + 1]:.6g}")
            out[i + 1] = c @ z
    return out


def _zero_state_plan(n: int, q: int, r: int, steps: int, chunk: int) -> tuple[bool, int, int]:
    """Whether rk4_linear takes the zero-state response by the Toeplitz product
    (r forcing samples per step, 0 unforced), the chunk length L it runs at,
    and the float64s it allocates on the grid: readouts, forcing, and the
    sweep's states or the Toeplitz matrix.  The sweep runs at ``chunk``; the
    Toeplitz product at the longest L <= ``chunk`` whose L^2 r q matrix is no
    larger than the readouts and forcing."""
    grid = (steps + 1) * q + steps * r
    if r:
        short = min(chunk, max(1, math.isqrt(grid // (r * q))))
        # per step, the Toeplitz product costs L r q flops against the sweep's
        # 2 n^2, and its matrix L^2 r q floats against the sweep's N n
        if short * r * q < 2 * n * n and short * short * r * q <= steps * n:
            return True, short, grid + short * short * r * q
    return False, chunk, grid + (steps * n if r else 0)


def _finite_rows(x: np.ndarray) -> np.ndarray:
    """Per row, whether every entry is finite (max and min propagate nan and inf)."""
    return np.isfinite(x.max(axis=1)) & np.isfinite(x.min(axis=1))


def _toeplitz_and_reach(t_map, g_map, c, chunk):
    """The maps from a chunk's stacked forcing (L r) to its zero-state
    readouts (L q), the block-Toeplitz matrix of the Markov parameters
    c T^d G, d < L, and to its end state (n), the reach matrix
    [T^(L-1) G ... G], both transposed for right-multiplication."""
    (n, r), q = g_map.shape, c.shape[0]
    reach = np.empty((chunk, n, r))  # reach[i] = T^(L-1-i) G
    reach[-1] = g_map
    for i in range(chunk - 1, 0, -1):
        np.matmul(t_map, reach[i], out=reach[i - 1])
    markov = (c @ reach[::-1]).transpose(2, 0, 1)  # (r, L, q): c T^d G
    toeplitz = np.zeros((chunk, r, chunk, q))  # input step i, output step j >= i
    for i in range(chunk):
        toeplitz[i, :, i:] = markov[:, : chunk - i]
    return toeplitz.reshape(chunk * r, chunk * q), reach.transpose(0, 2, 1).reshape(chunk * r, n)


def _on_state(label: str, blocks: dict, sizes: dict) -> np.ndarray:
    """The map z -> sum of blocks[name] z_name on the stacked state z."""
    unknown = [name for name in blocks if name not in sizes]
    if unknown:
        raise ValueError(
            f"readout {label!r} names unknown state blocks {unknown}; known: {', '.join(sizes)}"
        )
    first = np.shape(next(iter(blocks.values()), ()))
    rows = first[0] if first else 0
    for name, block in blocks.items():
        _require_shapes(**{f"readout {label!r} block {name!r}": (block, (rows, sizes[name]))})
    return np.hstack([blocks.get(name, np.zeros((rows, dim))) for name, dim in sizes.items()])


def integrate(spec: InterconnectionSpec, readouts: dict | None = None) -> Trajectory:
    """Assemble the coupled ODE for a topology and integrate it at readout
    level: the topology's outputs, its output error ``err`` last, and each of
    ``readouts`` (name -> {state block: matrix}, summed over the blocks) in
    ``Trajectory.readouts``.  A moment-based error (direct-generator,
    swapped-filter) raises ValueError at assembly where its Sylvester
    equation is ill-posed, and takes a moment already solved (such as the
    moment_swapped whose moment is a swapped filter's upsilon_b) from the
    moments memo."""
    a_aug, b_aug, z0, sizes, outputs = TOPOLOGIES[spec.topology].assemble(spec)
    if b_aug is not None and b_aug.shape[1] != spec.signal.dim:
        raise ValueError(
            f"signal dimension {spec.signal.dim} does not match the "
            f"{b_aug.shape[1]} inputs of the {spec.topology} interconnection"
        )
    readouts = readouts or {}
    taken = [name for name in readouts if name in outputs]
    if taken:
        raise ValueError(f"readout names {taken} are outputs of the {spec.topology} topology")
    maps = {**outputs, **readouts}
    maps = {name: _on_state(name, blocks, sizes) for name, blocks in maps.items()}
    c = np.vstack(list(maps.values()))
    steps = int(round(spec.horizon / spec.step))
    r = 0 if b_aug is None or spec.signal.is_zero() else 3 * spec.signal.dim
    # at rk4_linear's longest chunk; a shorter one (where ||T||_1^L would
    # pass MAX_CHUNK_GROWTH) allocates no more
    _, _, floats = _zero_state_plan(a_aug.shape[0], c.shape[0], r, steps, math.isqrt(steps))
    if 8 * floats > MAX_TRAJECTORY_BYTES:
        raise ValueError(
            f"grid of {steps + 1} samples (horizon={spec.horizon:g}, step={spec.step:g}) needs "
            f"{8 * floats} bytes, over the {MAX_TRAJECTORY_BYTES}-byte trajectory cap"
        )
    times = time_grid(spec.horizon, spec.step)
    y = rk4_linear(a_aug, b_aug, spec.signal, z0, times, c)
    split = np.cumsum([m.shape[0] for m in maps.values()])[:-1]
    values = dict(zip(maps, np.split(y, split, axis=1)))
    return Trajectory(
        times=times,
        outputs={name: values.pop(name) for name in outputs},
        readouts=values,
    )


def _assemble_direct_generator(spec):
    """err = y - C Pi w: the plant output against its steady-state prediction."""
    plant = spec.models["plant"]
    s, l = spec.links["s"], spec.links["l"]
    n_hat, n = s.shape[0], plant.n
    a_aug = np.block([[s, np.zeros((n_hat, n))], [plant.b @ l, plant.a]])
    z0 = np.concatenate([spec.initial["w"], spec.initial["x"]])
    moment = moment_direct(plant, DirectInterpolant(s=s, l=l)).moment
    outputs = {"theta": {"w": l}, "y": {"x": plant.c}, "err": {"w": -moment, "x": plant.c}}
    return a_aug, None, z0, {"w": n_hat, "x": n}, outputs


def _assemble_swapped_filter(spec):
    """err = w - (zeta - Ups x): the filter state against the limiting error model."""
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
    upsilon, eye = moment_swapped(plant, SwappedInterpolant(q=q, r=r)).upsilon, np.eye(n_hat)
    outputs = {"y": {"x": plant.c}, "err": {"x": upsilon, "w": eye, "zeta": -eye}}
    return a_aug, b_aug, z0, {"x": n, "w": n_hat, "zeta": n_hat}, outputs


def _assemble_hierarchical(spec):
    """err = y - psi: the plant output against the abstraction's."""
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
    outputs = {"y": {"x": plant.c}, "psi": {"xi": abstract.c}, "err": {"x": plant.c, "xi": -abstract.c}}
    return a_aug, b_aug, z0, {"xi": n_hat, "x": n}, outputs


PLANT = ("n", "m", "p")
ABSTRACT = ("n_hat", "m_hat", "p")

TOPOLOGIES = {
    "direct-generator": Topology(
        {"plant": PLANT}, {"s": ("k", "k"), "l": ("m", "k")}, {"w": ("k",), "x": ("n",)},
        _assemble_direct_generator,
    ),
    "swapped-filter": Topology(
        {"plant": PLANT}, {"q": ("k", "k"), "r": ("k", "p"), "upsilon_b": ("k", "m")}, {},
        _assemble_swapped_filter,
    ),
    "hierarchical": Topology(
        {"plant": PLANT, "abstract": ABSTRACT},
        {"p": ("n", "n_hat"), "l_hat": ("m", "n_hat"), "k": ("m", "n"), "r_hat": ("m", "m_hat")},
        {"x": ("n",), "xi": ("n_hat",)}, _assemble_hierarchical,
    ),
}


def fit_decay_rate(times: np.ndarray, norms: np.ndarray) -> float | None:
    """Least-squares exponential decay rate of a norm trace, ignoring samples
    at or below DECAY_FLOOR."""
    mask = norms > DECAY_FLOOR
    if mask.sum() < 2:
        return None
    t, y = times[mask], np.log(norms[mask])
    t = t - t.mean()
    return float(-(t @ (y - y.mean())) / (t @ t))


def error_stats(times: np.ndarray, out_err: np.ndarray, extras: dict | None = None) -> ErrorTrace:
    """Norms of a run's ``err`` with their sup over the trailing
    1 - SETTLE_FRACTION of the grid; the decay rate is fitted over all of it."""
    start = int(SETTLE_FRACTION * times.size)
    if times.size - start < 10:
        raise ValueError("trailing window has fewer than 10 samples")
    return ErrorTrace(
        out_err=out_err,
        sup_norm=float(out_err[start:].max()),
        terminal_norm=float(out_err[-1]),
        decay_rate=fit_decay_rate(times, out_err),
        extras=extras or {},
    )


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

    The error trace is e_y = y - psi, with the guaranteed bound
    max(V(xi0, x0), gamma(||v||_inf)) in its extras.
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
    norms = _norm(traj.outputs["err"], axis=1)
    sup_v = 0.0 if v.is_zero() else float(_norm(v.eval(traj.times), axis=1).max())
    bound = max(simulation_fn_value(cert, xi0, x0), gamma_gain(cert, plant.b, abstract.b) * sup_v)
    extras = {"bound": bound, "sup_e_y": float(norms.max())}
    return traj, error_stats(traj.times, norms, extras=extras)


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
    """Plant driving the abstraction through v = n x + gamma u + k_hat (xi - m x):
    the hierarchical run with the roles exchanged, (p, l_hat, k, r_hat) = (m,
    n, k_hat, gamma), whose psi, y and -err are y = c x, psi = h xi and err.

    The observed eps_s = xi - m x (``traj.readouts["eps_s"]``) is compared
    against an autonomous run of eps' = (f + g k_hat) eps from eps_s(0); the
    sup of their gap is ``extras["parallel_gap_sup"]``.
    """
    m_map = as_matrix(m_map, "m_map")
    _require_shapes(m_map=(m_map, (abstract.n, plant.n)))
    if u.dim != plant.m:
        raise ValueError(f"u has dimension {u.dim}, expected the plant's {plant.m} inputs")
    spec = InterconnectionSpec(
        topology="hierarchical",
        models={"plant": abstract, "abstract": plant},
        links={"p": m_map, "l_hat": link.n_map, "k": link.k_hat, "r_hat": link.gamma},
        initial={"x": xi0, "xi": x0},
        signal=u,
        horizon=horizon,
        step=step,
    )
    m_map = spec.links["p"]
    eps0 = spec.initial["x"] - m_map @ spec.initial["xi"]
    if np.allclose(link.k_hat, 0.0):
        if np.linalg.norm(eps0) > 1e-9 and not eigenvalues(abstract.a).is_hurwitz():
            warnings.warn(
                "xi(0) != m x(0) and the abstraction is not Hurwitz: "
                "steady-state matching is not guaranteed"
            )
    traj = integrate(spec, {"eps_s": {"x": np.eye(abstract.n), "xi": -m_map}})
    out = traj.outputs
    err = np.negative(out["err"], out=out["err"])  # in place: no second copy of the run
    traj = replace(traj, outputs={"y": out["psi"], "psi": out["y"], "err": err})
    f_cl = abstract.a + abstract.b @ spec.links["k"]
    eps = rk4_linear(f_cl, None, None, eps0, traj.times)
    gap = _norm(traj.readouts["eps_s"] - eps, axis=1)
    norms = _norm(traj.outputs["err"], axis=1)
    return traj, error_stats(traj.times, norms, extras={"parallel_gap_sup": float(gap.max())})
