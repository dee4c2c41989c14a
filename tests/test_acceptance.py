"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package and prints a single
[PASS]/[FAIL] line with the measured value next to its threshold.
"""

import time

import numpy as np
import pytest

from conftest import (
    direct_generator_spec,
    hierarchical_field,
    non_normal_stable_system,
    random_direct_interpolant,
    random_stable_system,
    random_swapped_interpolant,
    rotation_block,
    run_spec,
    simulation_fn_rate,
    swapped_filter_spec,
)
from momabs import springmass
from momabs.abstraction import (
    StabilizedLink,
    design_abstraction,
    gamma_gain,
    simulation_fn_value,
    synth_certificate,
)
from momabs.cli import main as cli_main
from momabs.linalg import StateSpaceModel, eigenvalues, place_poles, solve_sylvester
from momabs.moments import (
    DirectInterpolant,
    SwappedInterpolant,
    moment_direct,
    moment_swapped,
    rom_direct,
    rom_swapped,
    rom_two_sided,
    transfer_eval,
)
from momabs.signals import SignalSpec, Term
from momabs.sim import run_hierarchical, run_m_direct


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def plant():
    return springmass.concrete()


@pytest.fixture(scope="module")
def abstract():
    return springmass.abstract()


@pytest.fixture(scope="module")
def cert(plant, abstract):
    k = place_poles(plant.a, plant.b, springmass.closed_loop_target())
    return synth_certificate(plant, abstract, k, l_hat=springmass.l_hat())


@pytest.fixture(scope="module")
def design(plant):
    return design_abstraction(plant, springmass.embedding_p())


def test_01_plant_spectrum(plant):
    start = time.perf_counter()
    spec = eigenvalues(plant.a)
    expected = np.array([3.1623j, -3.1623j, 1.5811j, -1.5811j])
    gap = max(np.abs(spec.eigenvalues - e).min() for e in expected)
    elapsed = time.perf_counter() - start
    verdict(
        "spring-mass spectrum",
        gap <= 1e-3 and elapsed < 1.0,
        f"max eigenvalue gap {gap:.2e} <= 1e-3 in {elapsed:.3f}s",
    )


def test_02_embedding_solution(plant, abstract):
    p = solve_sylvester(plant.a, abstract.a, -(plant.b @ springmass.l_hat()))
    gap = np.abs(p - springmass.embedding_p()).max()
    cp_exact = np.array_equal(plant.c @ springmass.embedding_p(), np.eye(2))
    verdict(
        "spring-mass embedding matrix",
        gap <= 1e-9 and cp_exact,
        f"max entry gap {gap:.2e} <= 1e-9, c p = I exactly: {cp_exact}",
    )


def test_03_geometric_design(plant, design):
    from momabs.abstraction import check_design

    gaps = {
        "m": np.abs(design.m_map - springmass.m_map()).max(),
        "g": np.abs(design.g - springmass.abstract().b).max(),
        "gamma": np.abs(design.gamma - springmass.gamma_map()).max(),
        "n[2:]": np.abs(design.n_map[2:] - springmass.n_map_published()[2:]).max(),
    }
    residual = max(check_design(design, plant).values())
    ok = max(gaps.values()) <= 1e-8 and residual <= 1e-9
    verdict(
        "spring-mass link design",
        ok,
        f"max reference gap {max(gaps.values()):.2e} <= 1e-8, "
        f"max identity residual {residual:.2e} <= 1e-9",
    )


def test_04_moment_matching_random(rng):
    start = time.perf_counter()
    worst_moment, worst_transfer = 0.0, 0.0
    for i in range(100):
        n = int(rng.integers(3, 11))
        sys = random_stable_system(rng, n=n, m=1, p=1)
        di = random_direct_interpolant(rng, sys, freq=1.0 + rng.random())
        si = random_swapped_interpolant(rng, sys, freq=2.5 + rng.random())
        mode = i % 3
        if mode == 0:
            rom = rom_direct(sys, di, rng.standard_normal((2, sys.m)))
            pairs = [(moment_direct, di)]
            points = np.unique(np.abs(np.linalg.eigvals(di.s).imag)) * 1j
        elif mode == 1:
            rom = rom_swapped(sys, si, rng.standard_normal((sys.p, 2)))
            pairs = [(moment_swapped, si)]
            points = np.unique(np.abs(np.linalg.eigvals(si.q).imag)) * 1j
        else:
            rom = rom_two_sided(sys, di, si)
            pairs = [(moment_direct, di), (moment_swapped, si)]
            points = np.concatenate(
                [
                    np.unique(np.abs(np.linalg.eigvals(di.s).imag)),
                    np.unique(np.abs(np.linalg.eigvals(si.q).imag)),
                ]
            ) * 1j
        for solver, interp in pairs:
            full = solver(sys, interp).moment
            red = solver(rom, interp).moment
            rel = np.abs(full - red).max() / max(1.0, np.abs(full).max())
            worst_moment = max(worst_moment, rel)
        for pt in points:
            tf_full = transfer_eval(sys, complex(pt))
            tf_rom = transfer_eval(rom, complex(pt))
            rel = np.abs(tf_full - tf_rom).max() / max(1.0, np.abs(tf_full).max())
            worst_transfer = max(worst_transfer, rel)
    elapsed = time.perf_counter() - start
    ok = worst_moment <= 1e-7 and worst_transfer <= 1e-7 and elapsed < 30.0
    verdict(
        "moment matching on 100 random systems",
        ok,
        f"worst moment gap {worst_moment:.2e} <= 1e-7, worst transfer gap "
        f"{worst_transfer:.2e} <= 1e-7 in {elapsed:.1f}s",
    )


def test_05_limiting_behaviour_random(rng):
    start = time.perf_counter()
    worst_direct, worst_swapped = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        sys = random_stable_system(rng, n=n, m=1, p=1, margin=2.0)
        di = random_direct_interpolant(rng, sys, freq=1.0 + rng.random())
        _, err_d = run_spec(direct_generator_spec(
            sys, di, [1.0, 0.0], rng.standard_normal(n), horizon=10.0, step=2e-3
        ))
        worst_direct = max(worst_direct, err_d.sup_norm)
        si = random_swapped_interpolant(rng, sys, freq=2.5 + rng.random())
        u = SignalSpec(((Term("expdecay", amplitude=2.0, rate=1.0),),))
        _, err_s = run_spec(swapped_filter_spec(sys, si, u, horizon=10.0, step=2e-3))
        worst_swapped = max(worst_swapped, float(np.max(err_s.out_err)))
    elapsed = time.perf_counter() - start
    ok = worst_direct <= 1e-4 and worst_swapped <= 1e-5 and elapsed < 60.0
    verdict(
        "steady-state interconnections on 20 random plants",
        ok,
        f"generator trailing error {worst_direct:.2e} <= 1e-4, filter error "
        f"{worst_swapped:.2e} <= 1e-5 in {elapsed:.1f}s",
    )


def test_06_hierarchical_free_decay(plant, abstract, cert):
    traj, err = run_hierarchical(
        plant, abstract, cert, SignalSpec.zero(4), springmass.X0, springmass.XI0,
        horizon=10.0, step=1e-3,
    )
    # envelope of windowed maxima must not increase
    windows = np.array_split(err.out_err, 20)
    maxima = np.array([w.max() for w in windows])
    monotone = bool(np.all(np.diff(maxima) <= 1e-12))
    rate = err.decay_rate or 0.0
    ok = monotone and err.terminal_norm <= 1e-3 and rate >= 0.8 * cert.lam
    verdict(
        "hierarchical free response",
        ok,
        f"windowed maxima nonincreasing: {monotone}, terminal error "
        f"{err.terminal_norm:.2e} <= 1e-3, decay rate {rate:.2f} >= {0.8 * cert.lam:.2f}",
    )


def test_07_hierarchical_forced_bound(plant, abstract, cert):
    traj, err = run_hierarchical(
        plant, abstract, cert, springmass.v_signal(), springmass.X0, springmass.XI0,
        horizon=10.0, step=1e-3,
    )
    sup = err.extras["sup_e_y"]
    bound = err.extras["bound"]
    verdict(
        "hierarchical forced response bound",
        sup <= bound,
        f"sup output error {sup:.4g} <= guaranteed bound {bound:.4g}",
    )


def test_08_stabilized_link(plant, design):
    k_hat = place_poles(design.f, design.g, springmass.abstract_target())
    link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=k_hat)
    worst_err, worst_gap = 0.0, 0.0
    for u in (SignalSpec.zero(2), springmass.u_signal()):
        _, err = run_m_direct(
            plant, design.abstract_model(), link, design.m_map, u,
            springmass.X0, springmass.XI0, horizon=10.0, step=1e-3,
        )
        worst_err = max(worst_err, err.sup_norm)
        worst_gap = max(worst_gap, err.extras["parallel_gap_sup"])
    ok = worst_err <= 1e-3 and worst_gap <= 1e-6
    verdict(
        "stabilized plant-to-abstraction link",
        ok,
        f"trailing output error {worst_err:.2e} <= 1e-3, parallel error-model gap "
        f"{worst_gap:.2e} <= 1e-6",
    )


def test_09_consistent_link_mirrors_exactly(plant, design, rng):
    link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=np.zeros((4, 2)))
    worst = 0.0
    for _ in range(20):
        x0 = 3.0 * rng.standard_normal(4)
        u = SignalSpec(
            tuple(
                (
                    Term("sin", amplitude=float(rng.normal(scale=50.0)), frequency=float(1 + 4 * rng.random())),
                    Term("cos", amplitude=float(rng.normal(scale=50.0)), frequency=float(1 + 4 * rng.random())),
                )
                for _ in range(2)
            )
        )
        traj, err = run_m_direct(
            plant, design.abstract_model(), link, design.m_map, u,
            x0, design.m_map @ x0, horizon=5.0, step=1e-3,
        )
        worst = max(worst, float(np.max(err.out_err)))
    verdict(
        "matched-start link mirrors the plant output",
        worst <= 1e-6,
        f"worst output mismatch over 20 random starts {worst:.2e} <= 1e-6",
    )


def test_10_simulation_function_decrease(plant, abstract, cert, rng):
    gain = gamma_gain(cert, plant.b, abstract.b)
    field = hierarchical_field(plant, abstract, cert)
    violations, samples = 0, 0
    while samples < 1000:
        xi = 5.0 * rng.standard_normal(2)
        x = 5.0 * rng.standard_normal(4)
        val = simulation_fn_value(cert, xi, x)
        if val < 1e-6:
            continue
        v = rng.standard_normal(4)
        # rescale so the input gain stays strictly below the current value
        norm_v = np.linalg.norm(v)
        if norm_v > 0 and gain * norm_v >= 0.9 * val:
            v *= 0.9 * val / (gain * norm_v)
        dv = simulation_fn_rate(cert, field, v, xi, x)
        samples += 1
        if dv >= 0.0:
            violations += 1
    verdict(
        "simulation function strictly decreases below its gain level",
        violations == 0,
        f"{violations} violations over {samples} sampled states",
    )


def test_11_prestabilized_embedding_collapse(plant, abstract, cert, rng):
    def gap_for(sys, abs_model, certificate):
        a_cl = sys.a + sys.b @ certificate.k
        rhs = -(sys.b @ (certificate.l_hat - certificate.k @ certificate.p))
        p_bar = solve_sylvester(a_cl, abs_model.a, rhs)
        return float(np.abs(p_bar - certificate.p).max() / max(1.0, np.abs(certificate.p).max()))

    worst = gap_for(plant, abstract, cert)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        sys = random_stable_system(rng, n=n, m=2, p=2)
        abs_model = type(abstract)(
            a=rotation_block(1.0 + rng.random()),
            b=rng.standard_normal((2, 2)),
            c=rng.standard_normal((2, 2)),
        )
        k = place_poles(sys.a, sys.b, np.diag(-(1.0 + np.arange(n) + rng.random(n))))
        c2 = synth_certificate(sys, abs_model, k)
        worst = max(worst, gap_for(sys, abs_model, c2))
    verdict(
        "pre-stabilized plants embed through the same matrix",
        worst <= 1e-9,
        f"worst relative gap {worst:.2e} <= 1e-9 over the benchmark + 20 random instances",
    )


def test_12_reproducible_benchmark_outputs(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        code = cli_main(["paper-example", "--out", str(d), "--seed", "0"])
        assert code == 0
    names = ("hierarchical_free", "hierarchical_forced", "link_free", "link_forced")
    identical = all(
        (dirs[0] / f"{n}.csv").read_bytes() == (dirs[1] / f"{n}.csv").read_bytes()
        for n in names
    )
    verdict(
        "benchmark artifacts are byte-deterministic",
        identical,
        f"two seeded runs produced identical CSVs for {len(names)} scenarios",
    )


def test_13_certificate_and_design_at_order_200():
    rng = np.random.default_rng(200)
    start = time.perf_counter()
    plant = non_normal_stable_system(rng, n=200, m=2, p=2, cond=50.0)
    f = rotation_block(1.5)
    l_hat = rng.standard_normal((2, 2))
    p = solve_sylvester(plant.a, f, -(plant.b @ l_hat))
    abstract = StateSpaceModel(a=f, b=rng.standard_normal((2, 2)), c=plant.c @ p)
    cert = synth_certificate(plant, abstract, np.zeros((2, 200)), l_hat=l_hat)
    design_abstraction(plant, cert.p)
    elapsed = time.perf_counter() - start
    w, a_cl = cert.w, plant.a + plant.b @ cert.k
    w_norm = np.linalg.norm(w, 2)
    decay = np.linalg.eigvalsh(a_cl.T @ w + w @ a_cl + 2 * cert.lam * w).max() / w_norm
    domination = np.linalg.eigvalsh(w - plant.c.T @ plant.c).min() / w_norm
    ok = cert.lam > 0 and decay <= 1e-9 and domination >= -1e-9 and elapsed < 30.0
    verdict(
        "certificate and design on an order-200 non-normal plant",
        ok,
        f"decay inequality {decay:.2e} <= 1e-9, domination gap {domination:.2e} >= -1e-9, "
        f"lam {cert.lam:.3f} > 0 in {elapsed:.1f}s",
    )
