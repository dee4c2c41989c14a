import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    hierarchical_field,
    non_normal_stable_system,
    random_stable_system,
    rotation_block,
    simulation_fn_rate,
)
from momabs import abstraction, springmass
from momabs.abstraction import (
    check_design,
    certificate_residuals,
    check_m_relation,
    design_abstraction,
    final_abstraction,
    gamma_gain,
    m_relation_residuals,
    simulation_fn_value,
    solve_embedding,
    synth_certificate,
)
from momabs.linalg import (
    StateSpaceModel,
    block_diag_spectrum,
    eigenvalues,
    pbh_observable,
    place_poles,
    solve_sylvester,
)
from momabs.moments import transfer_eval

SRC = Path(__file__).resolve().parents[1] / "src" / "momabs"


def springmass_gain():
    plant = springmass.concrete()
    return place_poles(plant.a, plant.b, springmass.closed_loop_target())


def springmass_certificate():
    plant = springmass.concrete()
    return synth_certificate(
        plant,
        springmass.abstract(),
        springmass_gain(),
        l_hat=springmass.l_hat(),
    )


def random_certificate(rng, n=5, m=2, p=2, n_hat=2):
    """Random plant with a rotation abstraction whose embedding is solvable."""
    sys = random_stable_system(rng, n=n, m=m, p=p)
    abstract = StateSpaceModel(
        a=rotation_block(1.0 + rng.random()),
        b=rng.standard_normal((n_hat, m)),
        c=rng.standard_normal((p, n_hat)),
    )
    poles = tuple(-1.0 - rng.random(n) + 0.0j)
    k = place_poles(sys.a, sys.b, np.diag(np.asarray(poles).real))
    return sys, abstract, synth_certificate(sys, abstract, k)


def kron_embedding(sys, abstract):
    """Reference (p, l_hat): the joint minimum-norm solution of p f = a p + b l_hat
    and h = c p as one stacked least-squares system of size about (n n_hat)^2."""
    a, b, c = sys.a, sys.b, sys.c
    f, h = abstract.a, abstract.c
    n, m, n_hat = sys.n, sys.m, abstract.n
    # unknowns: vec(p) then vec(l_hat), column-major
    eye_n = np.eye(n)
    eye_nh = np.eye(n_hat)
    top = np.hstack(
        [np.kron(f.T, eye_n) - np.kron(eye_nh, a), -np.kron(eye_nh, b)]
    )
    bottom = np.hstack([np.kron(eye_nh, c), np.zeros((h.size, m * n_hat))])
    lhs = np.vstack([top, bottom])
    rhs = np.concatenate([np.zeros(n * n_hat), h.reshape(-1, order="F")])
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    p = sol[: n * n_hat].reshape((n, n_hat), order="F")
    l_hat = sol[n * n_hat :].reshape((m, n_hat), order="F")
    return p, l_hat


def embeddable_abstraction(rng, sys, blocks=1):
    """Rotation-block f with h = c p for a random l_hat, so an embedding exists."""
    f = np.zeros((2 * blocks, 2 * blocks))
    for i in range(blocks):
        f[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation_block(0.5 + 3 * rng.random())
    l_hat = rng.standard_normal((sys.m, 2 * blocks))
    h = sys.c @ solve_sylvester(sys.a, f, -(sys.b @ l_hat))
    return StateSpaceModel(a=f, b=rng.standard_normal((2 * blocks, 1)), c=h)


def test_no_kronecker_system_in_src():
    # an n^2 x n^2 Kronecker matrix is a test-only reference; src solves in O(n^3)
    assert [path.name for path in SRC.glob("*.py") if "kron" in path.read_text()] == []


def test_no_hashlib_in_src():
    # the moment memo compares bit patterns; nothing in src hashes arrays
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported and "hashlib" not in imported


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def calls_by_function() -> dict:
    """"module.function" -> the names it calls, lambdas and nested functions
    included, for every function in src."""
    calls = {}
    for path in SRC.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                calls[f"{path.stem}.{func.name}"] = {
                    getattr(node.func, "id", getattr(node.func, "attr", None))
                    for node in ast.walk(func) if isinstance(node, ast.Call)
                }
    return calls


def reachable(graph: dict, start: str, stop: str) -> set:
    """Names called from ``start``, transitively, without looking inside ``stop``."""
    seen, todo = set(), [start]
    while todo:
        for callee in graph.get(todo.pop(), ()):
            if callee not in seen:
                seen.add(callee)
                if callee != stop:
                    todo.append(callee)
    return seen


def test_transfer_eval_called_only_in_transfer_at():
    callers = [name for name, called in calls_by_function().items() if "transfer_eval" in called]
    assert callers == ["moments.transfer_at"]


def test_spectra_reached_only_through_the_disjoint_gate():
    # moment solves and transfer evaluations eigensolve the order-n plant only
    # in linalg._disjoint_gate, the exact fallback of the sigma_min certificate
    graph = {}
    for name, called in calls_by_function().items():
        graph.setdefault(name.split(".")[1], set()).update(called)
    gate, eager = "_disjoint_gate", {"spectra_disjoint", "eigenvalues", "eigvals"}
    assert eager & reachable(graph, gate, stop="")
    for start in ("solve_sylvester", "_shifted_solve", "transfer_eval"):
        assert reachable(graph, start, stop=gate) & eager == set(), start
    for start in ("solve_sylvester", "transfer_eval"):
        assert gate in reachable(graph, start, stop=gate), start


class TestSolveEmbedding:
    def test_golden_springmass_given_l_hat(self):
        p, l_hat = solve_embedding(
            springmass.concrete(), springmass.abstract(), springmass.l_hat()
        )
        assert np.abs(p - springmass.embedding_p()).max() < 1e-9
        assert np.abs(l_hat - springmass.l_hat()).max() < 1e-12

    def test_golden_springmass_joint(self):
        p, l_hat = solve_embedding(springmass.concrete(), springmass.abstract())
        assert np.abs(p - springmass.embedding_p()).max() < 1e-9
        assert np.abs(l_hat - springmass.l_hat()).max() < 1e-7

    def test_output_constraint_violation_raises(self, rng):
        sys = random_stable_system(rng, n=4, m=1, p=1)
        abstract = StateSpaceModel(
            a=rotation_block(2.0), b=np.ones((2, 1)), c=np.ones((1, 2))
        )
        # an l_hat chosen at random almost surely breaks h = c p
        with pytest.raises(ValueError, match="h = c p"):
            solve_embedding(sys, abstract, rng.standard_normal((1, 2)))

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_kronecker_reference(self, seed):
        # m <= p: every G(mu) has full column rank, so l_hat is unique
        rng = np.random.default_rng(seed)
        p_out = int(rng.integers(1, 4))
        sys = random_stable_system(
            rng, n=int(rng.integers(3, 9)), m=int(rng.integers(1, p_out + 1)), p=p_out
        )
        abstract = embeddable_abstraction(rng, sys, blocks=int(rng.integers(1, 3)))
        p, l_hat = solve_embedding(sys, abstract)
        p_ref, l_ref = kron_embedding(sys, abstract)
        assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
        assert np.linalg.norm(l_hat - l_ref) <= 1e-10 * np.linalg.norm(l_ref)

    def test_wide_plant_takes_minimum_norm_direction(self, rng):
        # m > p: G(mu) has a kernel, and each l_hat v is orthogonal to it
        sys = random_stable_system(rng, n=6, m=4, p=2)
        abstract = embeddable_abstraction(rng, sys, blocks=2)
        p, l_hat = solve_embedding(sys, abstract)
        f = abstract.a
        assert np.linalg.norm(p @ f - sys.a @ p - sys.b @ l_hat) < 1e-10 * np.linalg.norm(p)
        assert np.linalg.norm(sys.c @ p - abstract.c) < 1e-10 * np.linalg.norm(abstract.c)
        mu, v = np.linalg.eig(f)
        for point, direction in zip(mu, (l_hat @ v).T):
            _, _, vh = np.linalg.svd(transfer_eval(sys, complex(point)))
            # the rows of vh past rank p span the conjugate of ker G(mu)
            assert np.linalg.norm(vh[sys.p :] @ direction) < 1e-10 * np.linalg.norm(direction)

    def test_h_outside_range_of_g_names_mu(self, rng):
        sys = random_stable_system(rng, n=4, m=1, p=2)
        abstract = StateSpaceModel(
            a=rotation_block(2.0), b=np.ones((2, 1)), c=rng.standard_normal((2, 2))
        )
        with pytest.raises(ValueError, match=r"not in the range of G\(mu\) at mu = 0[+-]2j"):
            solve_embedding(sys, abstract)

    def test_one_transfer_solve_per_conjugate_pair(self, monkeypatch, transfer_calls, rng):
        sys = random_stable_system(rng, n=12, m=3, p=2)
        f = block_diag_spectrum([complex(-0.1 * k, sign * k) for k in range(1, 5) for sign in (1, -1)])
        abstract = StateSpaceModel(a=f, b=np.ones((8, 1)), c=rng.standard_normal((2, 8)))
        shapes = {name: [] for name in ("inv", "solve", "cholesky")}
        for name, seen in shapes.items():
            real = getattr(np.linalg, name)
            spy = lambda m, *args, real=real, seen=seen: seen.append(m.shape) or real(m, *args)
            monkeypatch.setattr(np.linalg, name, spy)
        p, l_hat = solve_embedding(sys, abstract)
        assert np.linalg.norm(sys.c @ p - abstract.c) < 1e-10 * np.linalg.norm(abstract.c)
        # one LU solve of a - mu I per upper point gives both G(mu) and p v, one Cholesky
        # certifies it, after the real one-shot proof fails: lambda_max((a + a^T)/2) is 0.43 here
        assert shapes["inv"] == []
        assert shapes["solve"].count((12, 12)) == shapes["cholesky"].count((12, 12)) - 1 == 4
        assert transfer_calls == []

    def test_jordan_block_f_raises(self, rng):
        sys = random_stable_system(rng, n=4, m=2, p=2)
        abstract = StateSpaceModel(
            a=np.array([[0.5, 1.0], [0.0, 0.5]]), b=np.ones((2, 1)), c=rng.standard_normal((2, 2))
        )
        with pytest.raises(ValueError, match="ill conditioned"):
            solve_embedding(sys, abstract)

    def test_f_sharing_an_eigenvalue_with_a_raises(self, rng):
        sys = random_stable_system(rng, n=4, m=2, p=2)
        point = eigenvalues(sys.a).eigenvalues[0]
        if point.imag:
            f = np.array([[point.real, point.imag], [-point.imag, point.real]])
        else:
            f = np.diag([point.real, point.real - 1.0])
        abstract = StateSpaceModel(a=f, b=np.ones((2, 1)), c=rng.standard_normal((2, 2)))
        with pytest.raises(ValueError, match=r"^sigma\(a\) and sigma\(b\) overlap"):
            solve_embedding(sys, abstract)


class TestSynthCertificate:
    def test_golden_springmass(self):
        cert = springmass_certificate()
        plant = springmass.concrete()
        assert np.abs(cert.p - springmass.embedding_p()).max() < 1e-9
        assert abs(cert.lam - 0.9 * 3.0) < 1e-8
        # decay inequality and output domination
        a_cl = plant.a + plant.b @ cert.k
        lmi = a_cl.T @ cert.w + cert.w @ a_cl + 2 * cert.lam * cert.w
        assert np.linalg.eigvalsh(lmi).max() <= 1e-8 * np.linalg.norm(cert.w)
        assert np.linalg.eigvalsh(cert.w - plant.c.T @ plant.c).min() >= -1e-9
        assert np.abs(cert.r_hat - np.ones((2, 4))).max() == 0.0

    def test_random_instances_satisfy_certificate(self, rng):
        for _ in range(5):
            sys, abstract, cert = random_certificate(rng)
            a_cl = sys.a + sys.b @ cert.k
            assert np.linalg.eigvalsh(cert.w).min() > 0
            lmi = a_cl.T @ cert.w + cert.w @ a_cl + 2 * cert.lam * cert.w
            assert np.linalg.eigvalsh(lmi).max() <= 1e-8 * np.linalg.norm(cert.w)
            assert np.linalg.eigvalsh(cert.w - sys.c.T @ sys.c).min() >= -1e-9
            resid = cert.p @ abstract.a - sys.a @ cert.p - sys.b @ cert.l_hat
            assert np.linalg.norm(resid) < 1e-8 * max(1.0, np.linalg.norm(cert.p))

    def test_zero_output_map(self, rng):
        sys = random_stable_system(rng, n=3, m=1, p=1)
        sys = StateSpaceModel(a=sys.a, b=sys.b, c=np.zeros((1, 3)))
        abstract = StateSpaceModel(
            a=rotation_block(1.0), b=np.ones((2, 1)), c=np.zeros((1, 2))
        )
        cert = synth_certificate(sys, abstract, np.zeros((1, 3)))
        assert np.linalg.eigvalsh(cert.w).min() > 0

    def test_destabilizing_gain_rejected(self):
        plant = springmass.concrete()
        with pytest.raises(ValueError, match="not stabilizing"):
            synth_certificate(plant, springmass.abstract(), np.zeros((2, 4)))


class TestSimulationFunction:
    def test_zero_on_manifold(self):
        cert = springmass_certificate()
        xi = np.array([1.7, -0.4])
        assert simulation_fn_value(cert, xi, cert.p @ xi) == 0.0

    def test_bounds_output_error(self, rng):
        cert = springmass_certificate()
        plant = springmass.concrete()
        abstract = springmass.abstract()
        for _ in range(50):
            xi = rng.standard_normal(2)
            x = rng.standard_normal(4)
            out_err = np.linalg.norm(abstract.c @ xi - plant.c @ x)
            assert out_err <= simulation_fn_value(cert, xi, x) + 1e-9

    def test_derivative_negative_without_input(self, rng):
        cert = springmass_certificate()
        plant = springmass.concrete()
        abstract = springmass.abstract()
        field = hierarchical_field(plant, abstract, cert)
        v = np.zeros(4)
        for _ in range(50):
            xi = rng.standard_normal(2)
            x = rng.standard_normal(4)
            if simulation_fn_value(cert, xi, x) < 1e-9:
                continue
            dv = simulation_fn_rate(cert, field, v, xi, x)
            assert dv < 0

    def test_decay_rate_exceeds_lambda(self, rng):
        cert = springmass_certificate()
        plant = springmass.concrete()
        abstract = springmass.abstract()
        field = hierarchical_field(plant, abstract, cert)
        for _ in range(20):
            xi = rng.standard_normal(2)
            x = rng.standard_normal(4)
            val = simulation_fn_value(cert, xi, x)
            if val < 1e-9:
                continue
            dv = simulation_fn_rate(cert, field, np.zeros(4), xi, x)
            assert dv <= -cert.lam * val + 1e-8 * val


class TestInterface:
    """The x-rows of the assembled hierarchical system are a x + b u at the
    interface u = r_hat v + l_hat xi + k (x - p xi)."""

    def test_matches_feedback_plus_feedforward_form(self, rng):
        cert = springmass_certificate()
        plant = springmass.concrete()
        field = hierarchical_field(plant, springmass.abstract(), cert)
        for _ in range(20):
            v = rng.standard_normal(4)
            xi = rng.standard_normal(2)
            x = rng.standard_normal(4)
            _, x_dot = field(v, xi, x)
            u = cert.r_hat @ v + cert.l_hat @ xi + cert.k @ (x - cert.p @ xi)
            assert np.abs(x_dot - (plant.a @ x + plant.b @ u)).max() < 1e-10

    def test_zero_everything_gives_zero(self):
        cert = springmass_certificate()
        field = hierarchical_field(springmass.concrete(), springmass.abstract(), cert)
        assert np.abs(field(np.zeros(4), np.zeros(2), np.zeros(4))[1]).max() == 0.0


class TestGammaGain:
    def test_nonnegative_and_finite(self):
        cert = springmass_certificate()
        plant = springmass.concrete()
        abstract = springmass.abstract()
        gain = gamma_gain(cert, plant.b, abstract.b)
        assert np.isfinite(gain) and gain >= 0

    def test_zero_when_feedforward_cancels(self, rng):
        sys, abstract, cert = random_certificate(rng, n=4, m=4, p=2)
        # choose g so that b r_hat = p g exactly: g = pinv(p) b r_hat with p injective
        g = np.linalg.pinv(cert.p) @ sys.b @ cert.r_hat
        if np.linalg.norm(sys.b @ cert.r_hat - cert.p @ g) < 1e-10:
            assert gamma_gain(cert, sys.b, g) < 1e-8


class TestDesignAbstraction:
    def test_golden_springmass(self):
        plant = springmass.concrete()
        design = design_abstraction(plant, springmass.embedding_p())
        assert np.abs(design.m_map - springmass.m_map()).max() < 1e-8
        d_ref = np.vstack([np.zeros((2, 2)), np.eye(2)])
        assert np.abs(design.d - d_ref).max() < 1e-8
        assert np.abs(design.f - springmass.abstract().a).max() < 1e-8
        assert np.abs(design.l_hat - springmass.l_hat()).max() < 1e-8
        assert np.abs(design.h - np.eye(2)).max() < 1e-8
        assert np.abs(design.g - springmass.abstract().b).max() < 1e-8
        assert np.abs(design.gamma - springmass.gamma_map()).max() < 1e-8
        # rows coupling velocities into the link are the published ones
        assert np.abs(design.n_map[2:] - springmass.n_map_published()[2:]).max() < 1e-8
        # rows 0-1 follow the construction -l_hat m_map
        assert np.abs(design.n_map[:2] - (-springmass.l_hat() @ springmass.m_map())).max() < 1e-8
        residuals = check_design(design, plant)
        assert max(residuals.values()) < 1e-9

    def test_identity_projection(self, rng):
        sys = random_stable_system(rng, n=4, m=2, p=1)
        design = design_abstraction(sys, np.eye(4))
        assert design.d.shape == (4, 0)
        assert np.abs(design.m_map - np.eye(4)).max() < 1e-10
        # a = f - b l_hat and the full residual table stays tight
        assert np.abs(sys.a - design.f + sys.b @ design.l_hat).max() < 1e-9
        assert max(check_design(design, sys).values()) < 1e-8

    def test_trivial_output_kernel(self):
        # c = I: a square p needs no injection; a narrower p cannot be complemented from ker(c)
        sys = StateSpaceModel(a=[[0.0, 1.0], [-2.0, -3.0]], b=[[0.0], [1.0]], c=np.eye(2))
        design = design_abstraction(sys, [[1.0, 1.0], [0.0, 2.0]])
        assert design.d.shape == (2, 0) and design.e.shape == (0, 2)
        assert max(check_design(design, sys).values()) < 1e-12
        with pytest.raises(ValueError, match=r"^im\(p\) \+ ker\(c\) does not span the state space$"):
            design_abstraction(sys, [[1.0], [0.0]])

    def test_link_closure(self, rng):
        plant = springmass.concrete()
        design = design_abstraction(plant, springmass.embedding_p())
        for _ in range(20):
            x = rng.standard_normal(4)
            u = rng.standard_normal(2)
            v = design.n_map @ x + design.gamma @ u
            lhs = design.m_map @ (plant.a @ x + plant.b @ u)
            rhs = design.f @ (design.m_map @ x) + design.g @ v
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_rank_deficient_p_rejected(self):
        plant = springmass.concrete()
        p = np.ones((4, 2))
        with pytest.raises(ValueError, match="injective"):
            design_abstraction(plant, p)

    def test_invariance_condition_rejected(self):
        # im(a p) escapes im(p) + im(b) when p hits only position states
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([[0.0], [0.0], [1.0]])
        c = np.array([[1.0, 0.0, 0.0]])
        sys = StateSpaceModel(a=a, b=b, c=c)
        p = np.array([[1.0], [1.0], [0.0]])
        with pytest.raises(ValueError, match="im"):
            design_abstraction(sys, p)

    def test_final_abstraction_matrices(self):
        plant = springmass.concrete()
        design = design_abstraction(plant, springmass.embedding_p())
        final = final_abstraction(design, plant)
        assert np.abs(final.a - springmass.abstract().a).max() < 1e-9
        assert np.abs(final.b - springmass.m_map() @ plant.b).max() < 1e-12
        assert np.abs(final.c - plant.c @ springmass.embedding_p()).max() < 1e-12
        # for this benchmark m b = 0 and c p = I
        assert np.abs(final.b).max() == 0.0
        assert np.abs(final.c - np.eye(2)).max() == 0.0


def reference_greedy_complement(p, basis, count):
    """The greedy pick with one QR of [p | selected] per pick: the columns of
    basis with the largest component off that span, first index on ties."""
    selected, current = [], p
    for _ in range(count):
        q, _ = np.linalg.qr(current)
        scores = np.linalg.norm(basis - q @ (q.T @ basis), axis=0)
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        current = np.hstack([current, basis[:, [selected[-1]]]])
    return basis[:, selected]


class TestGreedyComplement:
    """The one-pass Gram-Schmidt pick against the QR-per-pick reference."""

    def assert_same_picks(self, p, c):
        basis = abstraction._kernel_basis(c)
        count = p.shape[0] - p.shape[1]
        got = abstraction._greedy_complement(p, basis, count)
        assert np.array_equal(got, reference_greedy_complement(p, basis, count))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_bases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n))
        outputs = int(rng.integers(1, k + 1))  # ker(c) has n - outputs >= n - k columns
        self.assert_same_picks(rng.standard_normal((n, k)), rng.standard_normal((outputs, n)))

    def test_springmass(self):
        self.assert_same_picks(springmass.embedding_p(), springmass.concrete().c)

    def test_order_200_plant(self):
        # the plant and embedding of test_acceptance's order-200 certificate and design
        rng = np.random.default_rng(200)
        plant = non_normal_stable_system(rng, n=200, m=2, p=2, cond=50.0)
        p = solve_sylvester(plant.a, rotation_block(1.5), -(plant.b @ rng.standard_normal((2, 2))))
        self.assert_same_picks(p, plant.c)


class TestKernelComplement:
    """d is all of ker(c), in its own column order, when n_hat = rank c;
    for n_hat > rank c it is the greedy pick from ker(c)."""

    def assert_kernel_taken_whole(self, plant, p, monkeypatch):
        def no_greedy_pass(*args):
            raise AssertionError("ker(c) is the only complement: no greedy pass")

        monkeypatch.setattr(abstraction, "_greedy_complement", no_greedy_pass)
        design = design_abstraction(plant, p)
        assert np.array_equal(design.d, abstraction._kernel_basis(plant.c))
        check_design(design, plant)

    def test_springmass(self, monkeypatch):
        self.assert_kernel_taken_whole(springmass.concrete(), springmass.embedding_p(), monkeypatch)

    @pytest.mark.parametrize("n", [16, 36, 200])
    def test_non_normal_plants(self, n, monkeypatch):
        # the synthesis benchmark's designs: two outputs and a 2x2 oscillator f
        rng = np.random.default_rng(n)
        plant = non_normal_stable_system(rng, n=n, m=2, p=2, cond=10.0)
        p = solve_sylvester(plant.a, rotation_block(1.5), -(plant.b @ rng.standard_normal((2, 2))))
        self.assert_kernel_taken_whole(plant, p, monkeypatch)

    @pytest.mark.parametrize("n_hat", [3, 4])
    def test_larger_abstraction_keeps_the_greedy_pick(self, n_hat):
        rng = np.random.default_rng(n_hat)
        plant = non_normal_stable_system(rng, n=10, m=2, p=2, cond=10.0)
        f = block_diag_spectrum({3: [1.5j, -1.5j, 0.0], 4: [1.5j, -1.5j, 3j, -3j]}[n_hat])
        p = solve_sylvester(plant.a, f, -(plant.b @ rng.standard_normal((2, n_hat))))
        design = design_abstraction(plant, p)
        kerc = abstraction._kernel_basis(plant.c)
        assert kerc.shape[1] > 10 - n_hat
        assert np.array_equal(design.d, reference_greedy_complement(p, kerc, 10 - n_hat))
        check_design(design, plant)

    def test_numerically_singular_stack_refused(self):
        # c = 0: ker(c) = R^3 spans with any p, but a p of norm 1e-13 leaves cond([p d]) near 1e13
        plant = StateSpaceModel(a=np.diag([-1.0, -2.0, -3.0]), b=np.ones((3, 1)), c=np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"^\[p d\] is numerically singular; im\(p\) \+ im\(d\) != R\^n$"):
            design_abstraction(plant, [[1e-13], [0.0], [0.0]])


class TestMRelation:
    def test_golden_springmass(self):
        plant, abstract, m = springmass.concrete(), springmass.abstract(), springmass.m_map()
        residuals = check_m_relation(plant, abstract, m)
        # the least-squares witnesses satisfy g n = m a - f m and g gamma = m b
        assert list(residuals) == ["state", "input", "output"]
        assert max(residuals.values()) < 1e-10
        # so do the published ones; g = [0 I] reads only rows 3-4 of n
        published = m_relation_residuals(
            plant, abstract, m, springmass.n_map_published(), springmass.gamma_map()
        )
        assert max(published.values()) < 1e-10

    def test_self_relation_identity(self, rng):
        sys = random_stable_system(rng, n=4, m=2, p=2)
        assert max(check_m_relation(sys, sys, np.eye(4)).values()) < 1e-10
        # n = 0 and gamma = I witness it exactly
        exact = m_relation_residuals(sys, sys, np.eye(4), np.zeros((2, 4)), np.eye(2))
        assert exact == {"state": 0.0, "input": 0.0, "output": 0.0}

    def test_zero_map_refuted(self):
        plant = springmass.concrete()
        residuals = check_m_relation(plant, springmass.abstract(), np.zeros((2, 4)))
        assert residuals["output"] > 1.0

    def test_wrong_shape_rejected(self):
        plant = springmass.concrete()
        with pytest.raises(ValueError, match="m_map must be"):
            check_m_relation(plant, springmass.abstract(), np.zeros((3, 4)))


def springmass_relation_fields():
    """Keyword arguments of embedding_residuals and m_relation_residuals and of
    a certificate, all well-shaped, for the spring-mass design."""
    plant = springmass.concrete()
    design = design_abstraction(plant, springmass.embedding_p())
    embedding = {"p": design.p, "f": design.f, "l_hat": design.l_hat, "h": design.h}
    relation = {"m_map": design.m_map, "n_map": design.n_map, "gamma": design.gamma}
    return plant, design.abstract_model(), embedding, relation, springmass_certificate()


@pytest.mark.parametrize(
    "field, bad",
    [
        ("p", np.zeros((3, 2))), ("p", np.zeros(4)), ("f", np.zeros((3, 3))),
        ("f", np.zeros(2)), ("l_hat", np.zeros((1, 2))), ("h", np.zeros((1, 1))),
        ("h", np.zeros((2, 3))), ("p", np.zeros((4, 3))),
    ],
)
def test_embedding_residuals_name_a_misshaped_field(field, bad):
    plant, _, embedding, _, _ = springmass_relation_fields()
    with pytest.raises(ValueError, match=f"^{field} must be "):
        abstraction.embedding_residuals(plant, **{**embedding, field: bad})


@pytest.mark.parametrize(
    "field, bad",
    [
        ("m_map", np.zeros((3, 4))), ("m_map", np.zeros((2, 3))), ("n_map", np.zeros((4, 3))),
        ("n_map", np.zeros((3, 4))), ("gamma", np.zeros((4, 1))), ("gamma", np.zeros((2, 2))),
    ],
)
def test_m_relation_residuals_name_a_misshaped_field(field, bad):
    plant, abstract, _, relation, _ = springmass_relation_fields()
    with pytest.raises(ValueError, match=f"^{field} must be "):
        m_relation_residuals(plant, abstract, **{**relation, field: bad})


def test_m_relation_residuals_name_a_misshaped_h():
    plant, abstract, _, relation, _ = springmass_relation_fields()
    one_row = StateSpaceModel(a=abstract.a, b=abstract.b, c=abstract.c[:1])
    with pytest.raises(ValueError, match=r"^h must be 2x2, got \(1, 2\)"):
        m_relation_residuals(plant, one_row, **relation)


@pytest.mark.parametrize(
    "field, bad",
    [("k", np.zeros((2, 1))), ("k", np.zeros((4, 2))), ("w", np.eye(3)), ("p", np.zeros((3, 2)))],
)
def test_certificate_residuals_name_a_misshaped_field(field, bad):
    plant, abstract, _, _, cert = springmass_relation_fields()
    with pytest.raises(ValueError, match=f"^{field} must be "):
        certificate_residuals(dataclasses.replace(cert, **{field: bad}), plant, abstract.a)


RELATION_TERMS = {  # each residual as its set of terms, sign and order free
    "embedding state": {"p @ f", "a @ p", "b @ l_hat"},
    "embedding output": {"h", "c @ p"},
    "M-relation state": {"m_map @ a", "f @ m_map", "g @ n_map"},
    "M-relation input": {"g @ gamma", "m_map @ b"},
    "M-relation output": {"c", "h @ m_map"},
}


def sum_terms(node) -> set:
    """Terms of a sum or difference, unparsed without attribute owners (sys.a -> a)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return sum_terms(node.left) | sum_terms(node.right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return sum_terms(node.operand)
    return {re.sub(r"\b\w+\.", "", ast.unparse(node))}


def test_each_relation_residual_formed_in_one_function():
    found = {}
    for path in SRC.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                    terms = sum_terms(node)
                    for relation, want in RELATION_TERMS.items():
                        if terms == want:
                            found.setdefault(relation, set()).add(f"{path.stem}.{func.name}")
    assert found == {
        relation: {f"abstraction.{relation.split()[0].lower().replace('-', '_')}_residuals"}
        for relation in RELATION_TERMS
    }


class TestClosedLoopEmbeddingCollapse:
    """The embedding of the abstraction into the pre-stabilized plant
    (a + b k) with modified injection l_hat - k p coincides with p."""

    def _collapse_gap(self, sys, abstract, cert):
        a_cl = sys.a + sys.b @ cert.k
        rhs = -(sys.b @ (cert.l_hat - cert.k @ cert.p))
        p_bar = solve_sylvester(a_cl, abstract.a, rhs)
        return np.abs(p_bar - cert.p).max() / max(1.0, np.abs(cert.p).max())

    def test_golden_springmass(self):
        cert = springmass_certificate()
        gap = self._collapse_gap(springmass.concrete(), springmass.abstract(), cert)
        assert gap < 1e-9

    def test_random_instances(self, rng):
        for _ in range(5):
            sys, abstract, cert = random_certificate(rng)
            assert self._collapse_gap(sys, abstract, cert) < 1e-8


class TestObservabilityTransfer:
    def test_modified_injection_observable_springmass(self):
        cert = springmass_certificate()
        assert pbh_observable(springmass.abstract().a, cert.l_hat - cert.k @ cert.p)
