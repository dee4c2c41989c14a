"""Inputs, operations and correctness gates of the benchmark workloads.

Each workload class builds its inputs from the seed in ``__init__`` (the
timed set-up), runs one unit of user work in ``op(i)`` (the timed op), and
judges the op's outputs in ``check(i, result)``, which returns a list of
problems: ``("wrong", msg)`` for an output that is incorrect or not
byte-deterministic, ``("refused", msg)`` for a documented refusal (a
``ValueError`` from a numerical gate).  Either kind fails the op.

Why these workloads:

* ``paper-example`` is the command users run; its time goes to RK4
  (``sim``) and CSV/SVG writing (``modelio``), with linear algebra near 1 %.
* ``simulate-large`` uses ``sim`` at plant order 200, where each RK4 step
  is bound by matrix-vector work instead of interpreter overhead.
* ``synthesis`` calls ``moments`` and ``abstraction`` directly, so its
  time is almost all ``linalg`` (Kronecker Sylvester/Lyapunov solves);
  simulation and file-output changes must leave it flat.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

from momabs import abstraction, cli, linalg, moments
from momabs.linalg import StateSpaceModel

PAPER_SEEDS = 16  # paper-example seeds with recorded reference check values
PAPER_REFERENCE = Path(__file__).with_name("paper_reference.json")
# a check value v passes against its reference r when |v - r| <= VALUE_RTOL |r|
# + VALUE_ATOL, and its threshold t against the reference's to THRESHOLD_RTOL.
# Round-off-level values (errors near 1e-13) legitimately move by orders of
# magnitude under a reordered but equivalent computation; VALUE_ATOL allows that.
VALUE_RTOL = 1e-3
VALUE_ATOL = 1e-9
THRESHOLD_RTOL = 1e-6

SIM_ORDER = 200
SIM_STEP = 1e-3
SIM_HORIZON = 20.0
SIM_SAMPLED_ROWS = 41
SIM_RTOL = 1e-7  # sampled CSV values vs the benchmark's own propagator, per column scale

MOMENT_ORDERS = (50, 100, 200)
CERT_ORDERS = (16, 26, 36)
NON_NORMAL_COND = (10.0, 100.0)  # similarity condition number range of the non-normal level
SYNTH_TOL = 1e-8  # relative residuals of ROMs, certificates and designs

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*): value=(\S+) threshold=(\S+)$", re.M)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(argv) -> tuple[int, str]:
    """Run the momabs CLI in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def parse_checks(text: str) -> dict:
    """[PASS]/[FAIL] table of a CLI report: name -> (passed, value, threshold)."""
    return {
        m.group(2): (m.group(1) == "PASS", float(m.group(3)), float(m.group(4)))
        for m in _CHECK_LINE.finditer(text)
    }


def hurwitz_plant(rng, n: int, m: int, p: int, cond: float) -> StateSpaceModel:
    """Random stable plant a = v d v^-1 with spectral abscissa <= -0.2.

    d holds complex pairs (real part in [-2, -0.2], imaginary part in
    [0.5, 5]); v is orthogonal for cond = 1, else it has exactly that
    condition number, which makes a non-normal.
    """
    d = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        re_, im = -rng.uniform(0.2, 2.0), rng.uniform(0.5, 5.0)
        d[i : i + 2, i : i + 2] = [[re_, im], [-im, re_]]
    if n % 2:
        d[-1, -1] = -rng.uniform(0.2, 2.0)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.logspace(0.0, np.log10(cond), n)
    v, v_inv = (q1 * sv) @ q2, (q2.T / sv) @ q1.T
    return StateSpaceModel(
        a=v @ d @ v_inv, b=rng.standard_normal((n, m)), c=rng.standard_normal((p, n))
    )


def oscillator(*freqs: float) -> np.ndarray:
    """Block-diagonal skew matrix with eigenvalues +-i f for each f."""
    s = np.zeros((2 * len(freqs), 2 * len(freqs)))
    for j, f in enumerate(freqs):
        s[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[0.0, f], [-f, 0.0]]
    return s


class PaperExample:
    """op = ``momabs paper-example --out d --seed s``, alternating two seeds.

    The seeds come from the benchmark seed, among the PAPER_SEEDS whose
    check values were recorded from the package before any optimisation.
    Ops with the same seed must write byte-identical CSV/SVG files.
    """

    name = "paper-example"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.choice(PAPER_SEEDS, size=2, replace=False)]
        self.dirs = {s: workdir / f"paper-seed{s}" for s in self.seeds}
        for d in self.dirs.values():
            d.mkdir()
        self.digests = {}

    def prepare_checks(self) -> None:
        recorded = json.loads(PAPER_REFERENCE.read_text(encoding="utf-8"))
        self.reference = {s: recorded[str(s)] for s in self.seeds}

    def op(self, i: int):
        seed = self.seeds[i % 2]
        return seed, run_cli(["paper-example", "--out", str(self.dirs[seed]), "--seed", str(seed)])

    def check(self, i: int, result) -> list:
        seed, (code, text) = result
        problems = []
        if code != 0:
            problems.append(("wrong", f"paper-example --seed {seed} exited {code}"))
        checks, reference = parse_checks(text), self.reference[seed]
        if checks.keys() != reference.keys():
            problems.append(("wrong", f"check names differ from the reference: {sorted(checks)}"))
        for name, (passed, value, threshold) in checks.items():
            if not passed:
                problems.append(("wrong", f"[FAIL] {name}"))
            if name not in reference:
                continue
            _, ref_value, ref_threshold = reference[name]
            tol = VALUE_RTOL * abs(ref_value) + VALUE_ATOL
            if abs(value - ref_value) > tol:
                problems.append(("wrong", f"{name}: value {value:g}, reference {ref_value:g}"))
            if abs(threshold - ref_threshold) > THRESHOLD_RTOL * abs(ref_threshold):
                problems.append(
                    ("wrong", f"{name}: threshold {threshold:g}, reference {ref_threshold:g}")
                )
        problems += self._determinism(seed)
        return problems

    def _determinism(self, seed: int) -> list:
        files = sorted(p for p in self.dirs[seed].iterdir() if p.suffix in (".csv", ".svg"))
        digests = {p.name: sha256(p) for p in files}
        first = self.digests.setdefault(seed, digests)
        if digests != first:
            changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
            return [("wrong", f"seed {seed}: artifacts differ between ops: {changed}")]
        return []


class SimulateLarge:
    """op = ``momabs simulate spec.json --out prefix`` on a generated
    hierarchical spec: order-200 Hurwitz plant, 2-state oscillator
    abstraction, p from ``linalg.solve_sylvester``, k = 0, two-channel
    sin/square/cos forcing, 20 000 RK4 steps.

    Sampled CSV rows must match the benchmark's own RK4 propagator
    z+ = T z + C0 f(t) + Ch f(t + h/2) + C1 f(t + h) to SIM_RTOL, and every
    op must write byte-identical CSV/SVG files.
    """

    name = "simulate-large"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        n = SIM_ORDER
        plant = hurwitz_plant(rng, n, 2, 2, 1.0)
        f = oscillator(rng.uniform(1.0, 2.0))
        l_hat = rng.standard_normal((2, 2))
        p = linalg.solve_sylvester(plant.a, f, -(plant.b @ l_hat))
        abstract = StateSpaceModel(a=f, b=rng.standard_normal((2, 2)), c=plant.c @ p)
        channels = []
        for _ in range(2):
            channels.append(
                [
                    {"kind": kind, "amplitude": rng.uniform(*amp), "frequency": rng.uniform(*freq),
                     "phase": rng.uniform(0.0, 2 * np.pi)}
                    for kind, amp, freq in (
                        ("sin", (0.5, 1.5), (0.5, 5.0)),
                        ("square", (0.2, 1.0), (0.2, 2.0)),
                        ("cos", (0.1, 0.5), (3.0, 10.0)),
                    )
                ]
            )
        self.spec = {
            "topology": "hierarchical",
            "models": {
                "plant": {"a": plant.a.tolist(), "b": plant.b.tolist(), "c": plant.c.tolist()},
                "abstract": {
                    "a": abstract.a.tolist(), "b": abstract.b.tolist(), "c": abstract.c.tolist()
                },
            },
            "links": {
                "p": p.tolist(),
                "l_hat": l_hat.tolist(),
                "k": np.zeros((2, n)).tolist(),
                "r_hat": rng.standard_normal((2, 2)).tolist(),
            },
            "initial": {"x": rng.standard_normal(n).tolist(), "xi": rng.standard_normal(2).tolist()},
            "signal": {"channels": channels},
            "horizon": SIM_HORIZON,
            "step": SIM_STEP,
        }
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec), encoding="utf-8")
        self.prefix = workdir / "large"
        self.digests = None

    def prepare_checks(self) -> None:
        self.rows, self.expected = self._reference()

    def _reference(self):
        """Sampled CSV row indices and, per CSV column, the values expected
        there, from an RK4 propagator of the assembled hierarchical system."""
        spec = self.spec
        a, b, c = (np.array(spec["models"]["plant"][k]) for k in "abc")
        f, g, h = (np.array(spec["models"]["abstract"][k]) for k in "abc")
        p, l_hat, k, r_hat = (np.array(spec["links"][k]) for k in ("p", "l_hat", "k", "r_hat"))
        n_hat, n = f.shape[0], a.shape[0]
        # z = (xi, x); u = r_hat v + l_hat xi + k (x - p xi)
        a_aug = np.block([[f, np.zeros((n_hat, n))], [b @ (l_hat - k @ p), a + b @ k]])
        b_aug = np.vstack([g, b @ r_hat])
        step = spec["step"]
        count = int(round(spec["horizon"] / step))
        times = step * np.arange(count + 1)

        waves = {"sin": np.sin, "cos": np.cos, "square": lambda x: np.sign(np.sin(x))}

        def signal(t):
            return np.stack(
                [
                    sum(
                        term["amplitude"] * waves[term["kind"]](term["frequency"] * t + term["phase"])
                        for term in channel
                    )
                    for channel in spec["signal"]["channels"]
                ],
                axis=1,
            )

        dim = n + n_hat
        eye, zero = np.eye(dim), np.zeros((dim, dim))

        def rk4_step(z, f0, fh, f1):
            k1 = a_aug @ z + f0
            k2 = a_aug @ (z + 0.5 * step * k1) + fh
            k3 = a_aug @ (z + 0.5 * step * k2) + fh
            k4 = a_aug @ (z + step * k3) + f1
            return z + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        t_map = rk4_step(eye, zero, zero, zero)
        c0, ch, c1 = (rk4_step(zero, *(eye if j == i else zero for j in range(3))) for i in range(3))
        w_grid, w_half = signal(times), signal(times[:-1] + 0.5 * step)
        forcing = (
            w_grid[:-1] @ (c0 @ b_aug).T + w_half @ (ch @ b_aug).T + w_grid[1:] @ (c1 @ b_aug).T
        )
        rows = np.unique(np.linspace(0, count, SIM_SAMPLED_ROWS).round().astype(int))
        wanted = set(rows.tolist())
        z = np.concatenate([spec["initial"]["xi"], spec["initial"]["x"]])
        states = [z]
        for i in range(count):
            z = t_map @ z + forcing[i]
            if i + 1 in wanted:
                states.append(z)
        zs = np.array(states)
        y, psi = zs[:, n_hat:] @ c.T, zs[:, :n_hat] @ h.T
        expected = {"time": times[rows]}
        for name, values in (("y", y), ("psi", psi), ("err", y - psi)):
            expected.update({f"{name}_{j + 1}": values[:, j] for j in range(values.shape[1])})
        return rows, expected

    def op(self, i: int):
        return run_cli(["simulate", str(self.spec_path), "--out", str(self.prefix)])

    def check(self, i: int, result) -> list:
        code, text = result
        problems = []
        if code != 0 or "[FAIL]" in text:
            problems.append(("wrong", f"simulate exited {code}"))
        csv_path = Path(f"{self.prefix}.csv")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        if sorted(header) != sorted(self.expected):
            problems.append(("wrong", f"CSV columns {header}, expected {sorted(self.expected)}"))
        elif len(lines) != self.rows[-1] + 2:
            problems.append(("wrong", f"CSV has {len(lines) - 1} rows, expected {self.rows[-1] + 1}"))
        else:
            got = np.array([[float(x) for x in lines[r + 1].split(",")] for r in self.rows])
            want = np.column_stack([self.expected[name] for name in header])
            deviation = np.abs(got - want) / np.abs(want).max(axis=0)
            if not deviation.max() <= SIM_RTOL:
                problems.append(
                    ("wrong", f"sampled CSV rows deviate by {deviation.max():.3g} of column scale")
                )
        digests = (sha256(csv_path), sha256(f"{self.prefix}.svg"))
        self.digests = self.digests or digests
        if digests != self.digests:
            problems.append(("wrong", "CSV/SVG artifacts differ between ops"))
        return problems


class Synthesis:
    """op = one pass of library calls on the plants of one non-normality
    level, alternating levels between ops:

    * orders MOMENT_ORDERS: ``rom_direct``, ``rom_two_sided`` and
      ``tangential_mismatch_direct`` at 4-point interpolants (s, l), (q, r);
    * orders CERT_ORDERS: ``synth_certificate`` (k = 0 on the Hurwitz
      plant) and ``design_abstraction`` from the certificate's p.

    Level 0 plants have an orthogonal eigenvector basis, level 1 plants a
    basis with condition number drawn from NON_NORMAL_COND.  A call that
    raises ValueError (for example the Kronecker cond > 1e12 gate) is a
    refusal; the pass goes on with the next plant.  The benchmark checks
    each result on its own: tangential mismatch from its own transfer
    evaluation, Lyapunov and decay-inequality residuals of w, and every
    identity of the abstraction design.
    """

    name = "synthesis"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.levels = []
        for cond_range in ((1.0, 1.0), NON_NORMAL_COND):
            level = {"moments": [], "certificates": []}
            for n in MOMENT_ORDERS:
                plant = hurwitz_plant(rng, n, 2, 2, np.exp(rng.uniform(*np.log(cond_range))))
                di = moments.DirectInterpolant(
                    s=oscillator(rng.uniform(0.5, 2.0), rng.uniform(2.0, 4.0)),
                    l=rng.standard_normal((2, 4)),
                )
                si = moments.SwappedInterpolant(
                    q=oscillator(rng.uniform(4.0, 6.0), rng.uniform(6.0, 8.0)),
                    r=rng.standard_normal((4, 2)),
                )
                level["moments"].append((plant, di, si, rng.standard_normal((4, 2))))
            for n in CERT_ORDERS:
                plant = hurwitz_plant(rng, n, 2, 2, np.exp(rng.uniform(*np.log(cond_range))))
                f = oscillator(rng.uniform(1.0, 2.0))
                l_hat = rng.standard_normal((2, 2))
                p = linalg.solve_sylvester(plant.a, f, -(plant.b @ l_hat))
                abstract = StateSpaceModel(a=f, b=rng.standard_normal((2, 2)), c=plant.c @ p)
                level["certificates"].append((plant, abstract, l_hat, p))
            self.levels.append(level)

    def prepare_checks(self) -> None:
        pass

    def op(self, i: int):
        """Results per plant: (kind, case, outputs), an output being the
        returned value or the exception raised."""
        level = self.levels[i % 2]
        results = []
        for case in level["moments"]:
            plant, di, si, g = case
            rom = _attempt(moments.rom_direct, plant, di, g)
            two = _attempt(moments.rom_two_sided, plant, di, si)
            mismatch = (
                _attempt(moments.tangential_mismatch_direct, plant, rom, di)
                if isinstance(rom, StateSpaceModel)
                else None
            )
            results.append(("moments", case, (rom, two, mismatch)))
        for case in level["certificates"]:
            plant, abstract, l_hat, p = case
            k = np.zeros((plant.m, plant.n))
            cert = _attempt(abstraction.synth_certificate, plant, abstract, k, l_hat=l_hat)
            design = _attempt(abstraction.design_abstraction, plant, p)
            results.append(("certificate", case, (cert, design)))
        return results

    def check(self, i: int, results) -> list:
        problems = []
        for kind, case, outs in results:
            plant = case[0]
            label = f"level {i % 2} n={plant.n}"
            for out in outs:
                if isinstance(out, ValueError):
                    problems.append(("refused", f"{label}: {out}"))
                elif isinstance(out, Exception):
                    problems.append(("wrong", f"{label}: {type(out).__name__}: {out}"))
            if kind == "moments":
                _, di, si, _ = case
                rom, two, mismatch = outs
                if isinstance(rom, StateSpaceModel):
                    problems += _tangential(label + " rom_direct", plant, rom, di.s, di.l)
                    if isinstance(mismatch, float) and not mismatch <= SYNTH_TOL:
                        problems.append(("wrong", f"{label}: reported tangential mismatch {mismatch:g}"))
                if isinstance(two, StateSpaceModel):
                    problems += _tangential(label + " rom_two_sided", plant, two, di.s, di.l)
                    problems += _tangential(
                        label + " rom_two_sided (q, r)", plant, two, si.q, si.r, left=True
                    )
            else:
                _, abstract, _, p = case
                cert, design = outs
                if isinstance(cert, abstraction.SimulationCertificate):
                    problems += _certificate(label, plant, abstract, cert)
                if isinstance(design, abstraction.AbstractionDesign):
                    problems += _design(label, plant, p, design)
        return problems


def _attempt(fn, *args, **kwargs):
    """Call fn; return its result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # judged by Synthesis.check: ValueError is a refusal
        return exc


def _transfer(sys: StateSpaceModel, point: complex) -> np.ndarray:
    return sys.c @ np.linalg.solve(point * np.eye(sys.n) - sys.a, sys.b.astype(complex))


def _tangential(label, full, rom, s, l, left=False) -> list:
    """Relative transfer mismatch of rom against full along the interpolation
    directions: l v at each eigenpair (lam, v) of s, or w^T l for left
    eigenpairs of s (with l the input map r) when left is set."""
    vals, vecs = np.linalg.eig(s.T if left else s)
    worst = 0.0
    for lam, v in zip(vals, vecs.T):
        tf_full, tf_rom = _transfer(full, lam), _transfer(rom, lam)
        if left:
            d = v @ l
            ref, diff = d @ tf_full, d @ (tf_full - tf_rom)
        else:
            d = l @ v
            ref, diff = tf_full @ d, (tf_full - tf_rom) @ d
        worst = max(worst, np.linalg.norm(diff) / max(1.0, np.linalg.norm(ref)))
    if not worst <= SYNTH_TOL:
        return [("wrong", f"{label}: tangential mismatch {worst:.3g}")]
    return []


def _certificate(label, plant, abstract, cert) -> list:
    """Embedding, domination, decay-inequality and Lyapunov residuals of a
    certificate, computed from its defining inequalities."""
    a, b, c = plant.a, plant.b, plant.c
    w, lam, n = cert.w, cert.lam, plant.n
    w_norm = np.linalg.norm(w, 2)
    a_cl = a + b @ cert.k
    shifted = a_cl + lam * np.eye(n)
    rhs = -(shifted.T @ w + w @ shifted)
    # w is a multiple of a Lyapunov solution with right-hand side alpha c^T c + beta I
    basis = np.column_stack([(c.T @ c).ravel(), np.eye(n).ravel()])
    coef, *_ = np.linalg.lstsq(basis, rhs.ravel(), rcond=None)
    residuals = {
        "embedding p f - a p - b l_hat": np.linalg.norm(
            cert.p @ abstract.a - a @ cert.p - b @ cert.l_hat
        ) / max(1.0, np.linalg.norm(cert.p)),
        "output h - c p": np.linalg.norm(abstract.c - c @ cert.p)
        / max(1.0, np.linalg.norm(abstract.c)),
        "w asymmetry": np.linalg.norm(w - w.T) / w_norm,
        "c^T c domination gap": max(0.0, -np.linalg.eigvalsh(w - c.T @ c).min()) / w_norm,
        "decay inequality": max(0.0, np.linalg.eigvalsh(a_cl.T @ w + w @ a_cl + 2 * lam * w).max())
        / w_norm,
        "Lyapunov residual": np.linalg.norm(rhs - (basis @ coef).reshape(n, n))
        / np.linalg.norm(rhs),
    }
    problems = [
        ("wrong", f"{label} certificate: {name} residual {value:.3g}")
        for name, value in residuals.items()
        if not value <= SYNTH_TOL
    ]
    if not (lam > 0 and coef.min() >= 0):
        problems.append(("wrong", f"{label} certificate: lam {lam:g}, right-hand side {coef}"))
    return problems


def _design(label, plant, p, design) -> list:
    """Every defining identity of an abstraction design, relative to the
    size of the data."""
    a, b, c = plant.a, plant.b, plant.c
    n, n_hat = plant.n, design.order
    res = {
        "p is the given p": design.p - p,
        "m p - I": design.m_map @ design.p - np.eye(n_hat),
        "p m + d e - I": design.p @ design.m_map + design.d @ design.e - np.eye(n),
        "c d": c @ design.d,
        "a p - p f + b l_hat": a @ design.p - design.p @ design.f + b @ design.l_hat,
        "h - c p": design.h - c @ design.p,
        "m a - f m - g n": design.m_map @ a - design.f @ design.m_map - design.g @ design.n_map,
        "g gamma - m b": design.g @ design.gamma - design.m_map @ b,
        "c - h m": c - design.h @ design.m_map,
    }
    scale = max(
        1.0, *(np.linalg.norm(x) for x in (a, b, c, design.m_map, design.e, design.l_hat))
    )
    return [
        ("wrong", f"{label} design: {name} residual {np.linalg.norm(r):.3g}")
        for name, r in res.items()
        if not np.linalg.norm(r) <= SYNTH_TOL * scale
    ]


WORKLOADS = {cls.name: cls for cls in (PaperExample, SimulateLarge, Synthesis)}
