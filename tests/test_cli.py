import contextlib
import copy
import dataclasses
import functools
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    direct_generator_spec,
    non_normal_stable_system,
    rotation_block,
    run_spec,
    swapped_filter_spec,
)
from momabs import abstraction, cli, modelio, sim, springmass
from momabs.abstraction import (
    RESIDUAL_TOL,
    StabilizedLink,
    certificate_residuals,
    design_abstraction,
    synth_certificate,
)
from momabs.cli import main
from momabs.linalg import StateSpaceModel, eigenvalues, place_poles, solve_sylvester
from momabs.modelio import load_model, save_json, save_model
from momabs.moments import DirectInterpolant, SwappedInterpolant, moment_swapped
from momabs.signals import SignalSpec, Term


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.json"
    save_model(path, springmass.concrete(), role="concrete")
    return str(path)


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


def model_dict(model):
    return {"a": model.a.tolist(), "b": model.b.tolist(), "c": model.c.tolist()}


def decaying(dim):
    return SignalSpec(tuple((Term("expdecay", amplitude=i + 1.0, rate=1.0),) for i in range(dim)))


@functools.lru_cache(maxsize=None)
def springmass_certificate():
    plant = springmass.concrete()
    k = place_poles(plant.a, plant.b, springmass.closed_loop_target())
    return synth_certificate(plant, springmass.abstract(), k, l_hat=springmass.l_hat())


def certificate_fields(cert, f):
    """Artifact fields read by ``verify --checks certificate``."""
    fields = {name: getattr(cert, name).tolist() for name in ("p", "l_hat", "w", "k", "r_hat")}
    return {**fields, "lam": cert.lam, "f": np.asarray(f).tolist()}


@functools.lru_cache(maxsize=None)
def topology_runs():
    """Per topology, and for run_m_direct as "m-direct": a simulate spec (JSON
    data) on the spring-mass example and the in-process run of the same
    interconnection (the sim.run_* call where there is one), both on the same
    grid."""
    plant, abstract = springmass.concrete(), springmass.abstract()
    cert = springmass_certificate()
    k = cert.k
    design = design_abstraction(plant, springmass.embedding_p())
    reduced = design.abstract_model()
    k_hat = place_poles(design.f, design.g, springmass.abstract_target())
    link = StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=k_hat)
    di = DirectInterpolant(s=abstract.a, l=springmass.l_hat())
    si = SwappedInterpolant(q=rotation_block(5.0), r=np.eye(2))
    x0, xi0, v, u = springmass.X0, springmass.XI0, springmass.v_signal(), springmass.u_signal()
    grid = (1.0, 0.01)
    cases = {  # topology, models, links, initial, signal, in-process result
        "direct-generator": (
            "direct-generator", {"plant": plant}, {"s": di.s, "l": di.l}, {"w": xi0, "x": x0},
            None,
            run_spec(direct_generator_spec(plant, di, xi0, x0, horizon=grid[0], step=grid[1])),
        ),
        "swapped-filter": (
            "swapped-filter", {"plant": plant},
            {"q": si.q, "r": si.r, "upsilon_b": moment_swapped(plant, si).moment},
            {}, decaying(2),
            run_spec(swapped_filter_spec(plant, si, decaying(2), horizon=grid[0], step=grid[1])),
        ),
        "hierarchical": (
            "hierarchical", {"plant": plant, "abstract": abstract},
            {"p": cert.p, "l_hat": cert.l_hat, "k": cert.k, "r_hat": cert.r_hat},
            {"x": x0, "xi": xi0}, v, sim.run_hierarchical(plant, abstract, cert, v, x0, xi0, *grid),
        ),
        "m-direct": (  # the hierarchical run with plant and abstraction exchanged
            "hierarchical", {"plant": reduced, "abstract": plant},
            {"p": design.m_map, "l_hat": design.n_map, "k": k_hat, "r_hat": design.gamma},
            {"x": xi0, "xi": x0}, u,
            sim.run_m_direct(plant, reduced, link, design.m_map, u, x0, xi0, *grid),
        ),
    }
    runs = {}
    for run_name, (topology, models, links, initial, signal, run) in cases.items():
        spec = {
            "topology": topology,
            "models": {name: model_dict(model) for name, model in models.items()},
            "links": {name: np.asarray(value).tolist() for name, value in links.items()},
            "initial": {name: np.asarray(value).tolist() for name, value in initial.items()},
            "horizon": grid[0],
            "step": grid[1],
        }
        if signal is not None:
            spec["signal"] = signal.to_dict()
        runs[run_name] = (spec, run)
    return runs


def read_csv(path):
    """Header names and the data rows of a simulate CSV."""
    names = Path(path).read_text().split("\n", 1)[0].split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


DROP = object()
JUNK = ("abc", [], [1, "a"], {}, {"x": 1}, True, 10**400)


def json_paths(node, prefix=()):
    """Key paths to every value nested in the objects and arrays of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutated(doc, path, value):
    """Copy of ``doc`` with the value at ``path`` replaced, or removed for DROP."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def write_docs(directory, docs) -> dict:
    """Write each JSON document to ``directory``/<name>.json; return the paths by name."""
    return {name: write_json(Path(directory) / f"{name}.json", doc) for name, doc in docs.items()}


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestReduce:
    def test_direct_golden(self, tmp_path, plant_file, capsys):
        interp = write_json(
            tmp_path / "interp.json",
            {
                "s": springmass.abstract().a.tolist(),
                "l": springmass.l_hat().tolist(),
                "g": [[1.0, 0.0], [0.0, 1.0]],
            },
        )
        out = tmp_path / "rom.json"
        code = main(["reduce", plant_file, "--interp", interp, "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "[PASS] direct moment residual" in text
        rom = load_model(out)
        assert rom.n == 2
        # the reduced output map is the matched moment, c p = I here
        assert np.abs(rom.c - np.eye(2)).max() < 1e-9

    def test_jordan_interpolant(self, tmp_path, plant_file, capsys):
        # a defective s matches G(0) and G'(0) along l: solved, where an
        # eigenbasis solve refused it as "cond bound inf"
        data = {"s": [[0.0, 1.0], [0.0, 0.0]], "l": np.eye(2).tolist(), "g": np.eye(2).tolist()}
        interp = write_json(tmp_path / "interp.json", data)
        assert main(["reduce", plant_file, "--interp", interp, "--out", str(tmp_path / "rom.json")]) == 0
        assert "result: OK" in capsys.readouterr().out

    def test_two_sided(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        a = np.diag([-1.0, -2.0, -3.0, -4.0]) + 0.1 * rng.standard_normal((4, 4))
        a -= (max(np.linalg.eigvals(a).real, default=0) + 1.0) * np.eye(4)
        model = tmp_path / "sys.json"
        write_json(model, {"a": a.tolist(), "b": rng.standard_normal((4, 1)).tolist(), "c": rng.standard_normal((1, 4)).tolist()})
        interp = write_json(
            tmp_path / "interp.json",
            {
                "s": [[0.0, 1.5], [-1.5, 0.0]],
                "l": rng.standard_normal((1, 2)).tolist(),
                "q": [[0.0, 3.0], [-3.0, 0.0]],
                "r": rng.standard_normal((2, 1)).tolist(),
            },
        )
        out = tmp_path / "rom.json"
        code = main(["reduce", str(model), "--interp", interp, "--mode", "two-sided", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "swapped moment residual" in text
        assert "result: OK" in text

    def test_two_sided_orders_differ_exits_2(self, tmp_path, plant_file, capsys):
        rng = np.random.default_rng(7)
        interp = write_json(
            tmp_path / "interp.json",
            {"s": [[0.0, 1.5, 0.0], [-1.5, 0.0, 0.0], [0.0, 0.0, 0.5]], "q": [[0.0, 3.0], [-3.0, 0.0]],
             "l": rng.standard_normal((2, 3)).tolist(), "r": rng.standard_normal((2, 2)).tolist()},
        )
        out = tmp_path / "rom.json"
        assert main(["reduce", plant_file, "--interp", interp, "--mode", "two-sided", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: s has order 3 and q order 2; two-sided matching needs one\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, rows",
        [
            ("direct", ["direct moment residual", "transfer match at sigma(s) point 0+1.5j",
                        "transfer match at sigma(s) point 0.5+0j"]),
            ("swapped", ["swapped moment residual", "transfer match at sigma(q) point 0+1.5j",
                         "transfer match at sigma(q) point 0.5+0j"]),
        ],
    )
    def test_siso_check_rows(self, tmp_path, capsys, mode, rows):
        # one row per point of the sorted spectrum with imag >= 0, in that order
        rng = np.random.default_rng(7)
        plant = non_normal_stable_system(rng, n=4, m=1, p=1)
        model = write_json(tmp_path / "sys.json", model_dict(plant))
        gen = [[0.0, 1.5, 0.0], [-1.5, 0.0, 0.0], [0.0, 0.0, 0.5]]
        interp = write_json(
            tmp_path / "interp.json",
            {"s": gen, "l": [[1.0, 0.5, 1.0]], "g": [[1.0], [2.0], [3.0]],
             "q": gen, "r": [[1.0], [0.5], [1.0]], "h": [[1.0, 2.0, 3.0]]},
        )
        out = str(tmp_path / "rom.json")
        assert main(["reduce", model, "--interp", interp, "--mode", mode, "--out", out]) == 0
        assert re.findall(r"^\[PASS\] (.*): value=", capsys.readouterr().out, re.M) == rows

    def test_mimo_check_rows(self, tmp_path, plant_file, capsys):
        data = {"s": springmass.abstract().a.tolist(), "l": springmass.l_hat().tolist()}
        interp = write_json(tmp_path / "interp.json", {**data, "g": np.eye(2).tolist()})
        out = str(tmp_path / "rom.json")
        assert main(["reduce", plant_file, "--interp", interp, "--out", out]) == 0
        rows = re.findall(r"^\[PASS\] (.*): value=", capsys.readouterr().out, re.M)
        assert rows == ["direct moment residual", "tangential transfer match at sigma(s)"]

    def test_huge_plant_reduces_without_warning(self, tmp_path, capsys):
        # ||a||_F in the cheap Sylvester bound passes the double range; the exact bound decides
        plant = springmass.concrete()
        model = write_json(tmp_path / "sys.json", {**model_dict(plant), "a": (plant.a * 1e200).tolist()})
        data = {"s": springmass.abstract().a.tolist(), "l": springmass.l_hat().tolist()}
        interp = write_json(tmp_path / "interp.json", {**data, "g": np.eye(2).tolist()})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["reduce", model, "--interp", interp, "--out", str(tmp_path / "rom.json")])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_rows_identical_past_the_squares_range(self, tmp_path, capsys):
        # b = 2^530 [1, 1]^T: the moment's and transfer values' squares overflow, the rows do not
        data = {"s": [[0.0, 1.0], [-1.0, 0.0]], "l": [[1.0, 0.0]], "g": [[1.0], [0.0]]}
        interp = write_json(tmp_path / "interp.json", data)
        rows = []
        for scale in (2.0**30, 2.0**530):
            plant = StateSpaceModel(a=np.diag([-1.0, -2.0]), b=scale * np.ones((2, 1)), c=np.ones((1, 2)))
            model = write_json(tmp_path / "sys.json", model_dict(plant))
            assert main(["reduce", model, "--interp", interp, "--out", str(tmp_path / "rom.json")]) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and "result: OK" in captured.out
            rows.append([line for line in captured.out.splitlines() if line.startswith("[")])
        assert rows[0] == rows[1] and len(rows[0]) == 2

    def test_malformed_json_exits_2(self, tmp_path, plant_file, capsys):
        bad = tmp_path / "interp.json"
        bad.write_text('{"s": [[0, 1],\n')
        code = main(["reduce", plant_file, "--interp", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "invalid JSON at line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, patch, shown",
        [
            ("direct", {"l": DROP}, "missing field 'l'"),
            ("direct", {"s": "abc"}, "field 's' is not a numeric array"),
            ("direct", {"g": [[1.0, "a"]]}, "field 'g' is not a numeric array"),
            ("swapped", {}, "missing field 'q'"),
        ],
        ids=["missing-l", "s-string", "g-entry-string", "missing-q"],
    )
    def test_missing_or_non_numeric_field_exits_2(
        self, tmp_path, plant_file, capsys, mode, patch, shown
    ):
        data = {"s": springmass.abstract().a.tolist(), "l": springmass.l_hat().tolist()}
        data = {**data, "g": np.eye(2).tolist(), **patch}
        data = {key: value for key, value in data.items() if value is not DROP}
        interp = write_json(tmp_path / "interp.json", data)
        out = str(tmp_path / "o.json")
        code = main(["reduce", plant_file, "--interp", interp, "--mode", mode, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: {interp}: {shown}\n"

    def test_top_level_list_exits_2(self, tmp_path, plant_file, capsys):
        interp = write_json(tmp_path / "interp.json", [{"s": [[0.0, 1.0], [-1.0, 0.0]]}])
        code = main(["reduce", plant_file, "--interp", interp, "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "top level must be a JSON object, got list" in capsys.readouterr().err


class TestAbstract:
    def test_golden_design(self, tmp_path, plant_file, capsys):
        p_file = write_json(tmp_path / "p.json", {"p": springmass.embedding_p().tolist()})
        prefix = str(tmp_path / "design")
        code = main(["abstract", plant_file, "--p", p_file, "--out", prefix])
        assert code == 0
        design = json.loads((tmp_path / "design.design.json").read_text())
        assert np.abs(np.array(design["m"]) - springmass.m_map()).max() < 1e-8
        final = load_model(tmp_path / "design.final.json")
        assert np.abs(final.a - springmass.abstract().a).max() < 1e-8
        assert "result: OK" in capsys.readouterr().out

    def test_checks_the_design_and_reads_p_once(self, monkeypatch, tmp_path, plant_file, capsys):
        p_file = write_json(tmp_path / "p.json", {"p": springmass.embedding_p().tolist()})
        checked, read = [], []

        def spy(real, calls):
            @functools.wraps(real)
            def wrapper(*args):
                calls.append(args[0])
                return real(*args)
            return wrapper

        monkeypatch.setattr(abstraction, "check_design", spy(abstraction.check_design, checked))
        monkeypatch.setattr(cli, "load_json", spy(cli.load_json, read))
        monkeypatch.setattr(modelio, "load_json", spy(modelio.load_json, read))
        assert main(["abstract", plant_file, "--p", p_file, "--out", str(tmp_path / "d")]) == 0
        assert len(checked) == 1
        assert [str(path) for path in read].count(p_file) == 1
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines() if "residual" in line] == [
            f"[PASS] residual {name}" for name in DESIGN_CHECKS
        ]

    @pytest.mark.parametrize(
        "p, code, shown",
        [
            ([[1.0, 1.0], [0.0, 2.0]], 0, ""),
            ([[1.0], [0.0]], 2, "im(p) + ker(c) does not span the state space"),
        ],
        ids=["square", "no-injection-fits"],
    )
    def test_plant_with_trivial_output_kernel(self, tmp_path, capsys, p, code, shown):
        # c = I has ker(c) = {0}: a square p needs no injection, a narrower one cannot get one
        plant = StateSpaceModel(a=[[0.0, 1.0], [-2.0, -3.0]], b=[[0.0], [1.0]], c=np.eye(2))
        model = write_json(tmp_path / "sys.json", model_dict(plant))
        p_file = write_json(tmp_path / "p.json", {"p": p})
        assert main(["abstract", model, "--p", p_file, "--out", str(tmp_path / "d")]) == code
        captured = capsys.readouterr()
        assert shown in captured.err and ("result: OK" in captured.out) == (code == 0)
        if code == 0:
            assert np.array(json.loads((tmp_path / "d.design.json").read_text())["d"]).size == 0

    def test_p_file_without_p_exits_2(self, tmp_path, plant_file, capsys):
        p_file = write_json(tmp_path / "p.json", {"matrix": springmass.embedding_p().tolist()})
        assert main(["abstract", plant_file, "--p", p_file, "--out", str(tmp_path / "d")]) == 2
        assert "missing field 'p'" in capsys.readouterr().err

    def test_inadmissible_p_exits_2(self, tmp_path, plant_file, capsys):
        p_file = write_json(tmp_path / "p.json", {"p": np.ones((4, 2)).tolist()})
        code = main(["abstract", plant_file, "--p", p_file, "--out", str(tmp_path / "d")])
        assert code == 2
        assert "injective" in capsys.readouterr().err

    def test_overflowing_residual_exits_2(self, tmp_path, capsys):
        # a ~ 1e300: ||a p||_F and the embedding residual overflow, and no tolerance
        # passes an inf; pytest's filterwarnings = error fails any overflow warning
        rng = np.random.default_rng(0)
        plant = StateSpaceModel(
            a=1e300 * rng.standard_normal((6, 6)), b=rng.standard_normal((6, 2)), c=rng.standard_normal((2, 6))
        )
        model = write_json(tmp_path / "sys.json", model_dict(plant))
        p_file = write_json(tmp_path / "p.json", {"p": rng.standard_normal((6, 3)).tolist()})
        assert main(["abstract", model, "--p", p_file, "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert "embedding residual 2.272e+300: geometric condition fails numerically" in err
        assert "Traceback" not in err and not (tmp_path / "d.design.json").exists()

    def test_overflowing_a_p_exits_2_with_one_error_line(self, tmp_path, capsys):
        # a p = [2e308, -1e308] is past the double range; pytest's filterwarnings = error
        # fails any overflow warning, as PYTHONWARNINGS=error would
        plant = StateSpaceModel(a=1e308 * np.array([[1.0, 1.0], [0.0, -1.0]]), b=[[1.0], [0.0]], c=[[1.0, 0.0]])
        model = write_json(tmp_path / "sys.json", model_dict(plant))
        p_file = write_json(tmp_path / "p.json", {"p": [[1.0], [1.0]]})
        assert main(["abstract", model, "--p", p_file, "--out", str(tmp_path / "d")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: a p is not finite: a or p is past the double range\n"
        assert captured.out == "" and not (tmp_path / "d.design.json").exists()

    def test_design_json_feeds_verify(self, tmp_path, plant_file, capsys):
        p_file = write_json(tmp_path / "p.json", {"p": springmass.embedding_p().tolist()})
        assert main(["abstract", plant_file, "--p", p_file, "--out", str(tmp_path / "d")]) == 0
        design = tmp_path / "d.design.json"
        assert list(json.loads(design.read_text())) == ["p", "d", "e", "m", "f", "l_hat", "h", "g", "n", "gamma"]
        capsys.readouterr()
        argv = ["verify", plant_file, "--artifact", str(design), "--checks", "embedding,mrelation"]
        assert main(argv) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert [row.split(":")[0] for row in rows] == [
            f"[PASS] {name} residual" for name in ("embedding state", "embedding output", "mrelation state",
                                                   "mrelation input", "mrelation output")
        ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_inputs_exit_code_with_reduce(self, data):
        docs = {
            "model": model_dict(springmass.concrete()),
            "interp": {
                "s": springmass.abstract().a.tolist(), "l": springmass.l_hat().tolist(),
                "g": np.eye(2).tolist(), "q": rotation_block(5.0).tolist(), "r": np.eye(2).tolist(),
                "h": np.eye(2).tolist(),
            },
            "p": {"p": springmass.embedding_p().tolist()},
        }
        which = data.draw(st.sampled_from(sorted(docs)))
        path = data.draw(st.sampled_from(list(json_paths(docs[which]))))
        docs[which] = mutated(docs[which], path, data.draw(st.sampled_from((DROP, *JUNK))))
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_docs(tmp, docs)
            for mode in ("direct", "swapped", "two-sided"):
                argv = ["reduce", paths["model"], "--interp", paths["interp"], "--mode", mode]
                assert run_quietly([*argv, "--out", f"{tmp}/rom.json"]) in (0, 1, 2)
            argv = ["abstract", paths["model"], "--p", paths["p"], "--out", f"{tmp}/d"]
            assert run_quietly(argv) in (0, 1, 2)


def hierarchical_spec(tmp_path, horizon=2.0):
    plant = springmass.concrete()
    abstract = springmass.abstract()
    k = place_poles(plant.a, plant.b, springmass.closed_loop_target())
    from momabs.abstraction import synth_certificate

    cert = synth_certificate(plant, abstract, k, l_hat=springmass.l_hat())
    data = {
        "topology": "hierarchical",
        "models": {
            "plant": {"a": plant.a.tolist(), "b": plant.b.tolist(), "c": plant.c.tolist()},
            "abstract": {"a": abstract.a.tolist(), "b": abstract.b.tolist(), "c": abstract.c.tolist()},
        },
        "links": {
            "p": cert.p.tolist(),
            "l_hat": cert.l_hat.tolist(),
            "k": cert.k.tolist(),
            "r_hat": cert.r_hat.tolist(),
        },
        "initial": {"x": springmass.X0.tolist(), "xi": springmass.XI0.tolist()},
        "signal": springmass.v_signal().to_dict(),
        "horizon": horizon,
        "step": 1e-3,
    }
    return write_json(tmp_path / "spec.json", data)


class TestSimulate:
    def test_hierarchical_spec(self, tmp_path, capsys):
        spec = hierarchical_spec(tmp_path)
        prefix = str(tmp_path / "run")
        code = main(["simulate", spec, "--out", prefix])
        assert code == 0
        header = (tmp_path / "run.csv").read_text().splitlines()[0]
        assert header.startswith("time,")
        assert "err_1" in header and "err_2" in header
        assert (tmp_path / "run.svg").read_text().startswith("<svg ")

    def test_step_and_horizon_flags(self, tmp_path, capsys):
        spec = hierarchical_spec(tmp_path)
        prefix = str(tmp_path / "run")
        code = main(["simulate", spec, "--out", prefix, "--step", "0.01", "--horizon", "1.0"])
        assert code == 0
        rows = (tmp_path / "run.csv").read_text().strip().splitlines()
        assert len(rows) == 102  # header + 101 samples

    def test_overflowing_propagator_exits_2_with_one_error_line(self, tmp_path, capsys):
        spec = json.loads(Path(hierarchical_spec(tmp_path)).read_text())
        plant = spec["models"]["plant"]
        plant["a"] = (np.array(plant["a"]) * 1e150).tolist()
        path = write_json(tmp_path / "huge.json", spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", path, "--out", str(tmp_path / "r"), "--step", "0.01"])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "error: state diverged at t=0.01\n"

    def test_huge_finite_error_plots_finite(self, tmp_path, capsys):
        # the squares of the err rows pass the double range, the rows themselves do not
        spec = json.loads(Path(hierarchical_spec(tmp_path)).read_text())
        spec["initial"]["x"] = [1e300, 0.0, 0.0, 0.0]
        spec["signal"] = SignalSpec.zero(len(spec["signal"]["channels"])).to_dict()
        path = write_json(tmp_path / "huge.json", spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", path, "--out", str(tmp_path / "r"), "--step", "0.01"])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        svg = (tmp_path / "r.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_zero_horizon_exits_2(self, tmp_path, capsys):
        spec = hierarchical_spec(tmp_path)
        code = main(["simulate", spec, "--out", str(tmp_path / "r"), "--horizon", "0"])
        assert code == 2
        assert "horizon" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags, shown",
        [
            (["--horizon", "inf"], "(horizon=inf, step=0.001)"),
            (["--step", "nan"], "(horizon=2, step=nan)"),
            (["--horizon", "1.0", "--step", "0.3"], "(horizon=1, step=0.3)"),
        ],
    )
    def test_bad_time_grid_exits_2(self, tmp_path, capsys, flags, shown):
        spec = hierarchical_spec(tmp_path)
        code = main(["simulate", spec, "--out", str(tmp_path / "r"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shown in err
        assert not (tmp_path / "r.csv").exists()


    @pytest.mark.parametrize(
        "signal, shown",
        [
            ({"channels": [[{"kind": "sin", "amp": 1.0}]]}, "field(s): 'amp'"),
            ({"channels": [[{"kind": "sin", "amplitude": "abc"}]]}, "field 'amplitude'"),
            ({"channels": [[{"kind": "sin", "amplitude": 10**400}]]}, "field 'amplitude'"),
            ({"channels": [[{"kind": "sin", "amplitude": True}]]}, "field 'amplitude'"),
            ({"channels": [[{"amplitude": 1.0}]]}, "field 'kind'"),
            ({"channels": {}}, "'channels' list"),
        ],
        ids=[
            "unknown-term-key", "non-numeric-field", "huge-int-field", "bool-field", "missing-kind",
            "channels-not-list",
        ],
    )
    def test_malformed_signal_exits_2(self, tmp_path, capsys, signal, shown):
        path = Path(hierarchical_spec(tmp_path))
        write_json(path, {**json.loads(path.read_text()), "signal": signal})
        code = main(["simulate", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shown in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        path = Path(hierarchical_spec(tmp_path))
        write_json(path, [json.loads(path.read_text())])
        code = main(["simulate", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "top level must be a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, shown",
        [
            ({"models": [1]}, "field 'models' must be a JSON object, got [1]"),
            ({"links": [1]}, "field 'links' must be a JSON object, got [1]"),
            ({"initial": [1]}, "field 'initial' must be a JSON object, got [1]"),
            ({"models": {"plant": 3}}, "field 'models.plant' must be a JSON object, got 3"),
            ({"horizon": "abc"}, "field 'horizon' must be a number, got 'abc'"),
            ({"step": True}, "field 'step' must be a number, got True"),
            ({"horizon": 10**400}, "field 'horizon' must be a number"),
            ({"links": {"p": {"x": 1}}}, "field 'links.p' is not a numeric array"),
            ({"initial": {"x": "abc"}}, "field 'initial.x' is not a numeric array"),
            ({"links": {"p": "abc"}}, "field 'links.p' is not a numeric array"),
            ({"links": {"p": [10**400]}}, "field 'links.p' is not a numeric array"),
            (
                {"models": {"plant": {"a": [[1.0]], "b": [[1.0]]}}},
                "missing matrix 'models.plant.c'",
            ),
        ],
        ids=[
            "models-list", "links-list", "initial-list", "model-int", "horizon-str",
            "step-bool", "horizon-huge-int", "link-object", "initial-str", "link-str",
            "link-huge-int", "model-missing-c",
        ],
    )
    def test_malformed_spec_field_exits_2(self, tmp_path, capsys, patch, shown):
        path = Path(hierarchical_spec(tmp_path))
        write_json(path, {**json.loads(path.read_text()), **patch})
        code = main(["simulate", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and shown in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_top_level_field_exits_2(self, tmp_path, capsys):
        # a misspelt horizon used to run 10 s at the default horizon with a zero signal
        path = Path(hierarchical_spec(tmp_path))
        spec = json.loads(path.read_text())
        write_json(path, {**spec, "horizn": spec.pop("horizon"), "signals": spec.pop("signal")})
        code = main(["simulate", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unknown field(s) 'horizn', 'signals';"
            " known: topology, models, links, initial, signal, horizon, step\n"
        )
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "path, shown",
        [
            (("topology",), "{path}: missing field 'topology'"),
            (("models", "abstract"), "topology 'hierarchical' needs models.abstract"),
            (("links", "l_hat"), "topology 'hierarchical' needs links.l_hat"),
            (("initial", "xi"), "topology 'hierarchical' needs initial.xi"),
        ],
        ids=["topology", "model", "link", "initial"],
    )
    def test_missing_spec_field_exits_2(self, tmp_path, capsys, path, shown):
        spec = Path(hierarchical_spec(tmp_path))
        write_json(spec, mutated(json.loads(spec.read_text()), path, DROP))
        code = main(["simulate", str(spec), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == "error: " + shown.format(path=spec) + "\n"
        assert not (tmp_path / "r.csv").exists()

    def test_signal_dimension_mismatch_exits_2(self, tmp_path, capsys):
        path = Path(hierarchical_spec(tmp_path))
        write_json(path, {**json.loads(path.read_text()), "signal": SignalSpec.zero(1).to_dict()})
        code = main(["simulate", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: signal dimension 1 does not match the 4 inputs"
            " of the hierarchical interconnection\n"
        )

    @pytest.mark.parametrize("run", [*sim.TOPOLOGIES, "m-direct"])
    def test_err_columns_match_run_error_trace(self, tmp_path, capsys, run):
        spec, (traj, err) = topology_runs()[run]
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        names, rows = read_csv(tmp_path / "run.csv")
        np.testing.assert_array_equal(rows[:, 0], traj.times)
        err_cols = [j for j, name in enumerate(names) if name.startswith("err_")]
        assert len(err_cols) > 0
        norms = np.linalg.norm(rows[:, err_cols], axis=1)
        np.testing.assert_allclose(norms, err.out_err, rtol=1e-12, atol=1e-15)

    def test_m_direct_run_as_exchanged_hierarchical_spec(self, tmp_path, capsys):
        # run_m_direct's y, psi and err are the exchanged run's psi, y and -err
        spec, (traj, _) = topology_runs()["m-direct"]
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        names, rows = read_csv(tmp_path / "run.csv")
        cols = lambda prefix: rows[:, [j for j, col in enumerate(names) if col.startswith(prefix)]]
        for name, got in (("y", cols("psi_")), ("psi", cols("y_")), ("err", -cols("err_"))):
            np.testing.assert_allclose(got, traj.outputs[name], rtol=1e-12, atol=1e-15)

    def test_m_swapped_run_as_swapped_filter_spec(self, tmp_path, capsys):
        # the M-relation's swapped form is the swapped filter with (q, r) =
        # (f, g), whose upsilon_b is the M-relation map times b
        plant, cert = springmass.concrete(), springmass_certificate()
        design = design_abstraction(plant, springmass.embedding_p())
        n_s = design.n_map + design.gamma @ cert.k
        aux = StateSpaceModel(a=plant.a + plant.b @ cert.k, b=plant.b, c=-n_s)
        interp = SwappedInterpolant(q=design.f, r=design.g)
        _, err = run_spec(swapped_filter_spec(aux, interp, decaying(2), horizon=1.0, step=0.01))
        spec = {
            "topology": "swapped-filter",
            "models": {"plant": model_dict(aux)},
            "links": {
                "q": design.f.tolist(), "r": design.g.tolist(),
                "upsilon_b": (design.m_map @ plant.b).tolist(),
            },
            "signal": decaying(2).to_dict(), "horizon": 1.0, "step": 0.01,
        }
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        names, rows = read_csv(tmp_path / "run.csv")
        err_cols = [j for j, name in enumerate(names) if name.startswith("err_")]
        norms = np.linalg.norm(rows[:, err_cols], axis=1)
        np.testing.assert_allclose(norms, err.out_err, rtol=1e-9, atol=1e-14)

    def test_m_swapped_is_an_unknown_topology(self, tmp_path, capsys):
        spec = {**topology_runs()["swapped-filter"][0], "topology": "m-swapped"}
        code = main(["simulate", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path / "r")])
        assert code == 2
        known = ", ".join(sim.TOPOLOGIES)
        assert capsys.readouterr().err == f"error: unknown topology 'm-swapped'; known: {known}\n"

    def test_m_direct_is_an_unknown_topology(self, tmp_path, capsys):
        spec = {**topology_runs()["m-direct"][0], "topology": "m-direct"}
        code = main(["simulate", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path / "r")])
        assert code == 2
        known = ", ".join(sim.TOPOLOGIES)
        assert capsys.readouterr().err == f"error: unknown topology 'm-direct'; known: {known}\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "topology, group, name",
        [
            (topology, group, name)
            for topology, topo in sim.TOPOLOGIES.items()
            for group in ("links", "initial")
            for name in getattr(topo, group)
        ],
    )
    def test_short_field_exits_2(self, tmp_path, capsys, topology, group, name):
        spec = copy.deepcopy(topology_runs()[topology][0])
        value = spec[group][name]
        spec[group][name] = value[:-1]  # one row (link) or one entry (initial) short
        code = main(["simulate", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path / "r")])
        assert code == 2
        want = np.shape(value)
        want = (want[0] - 1, *want[1:])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {group}.{name} must be ")
        assert err.endswith(f", got {want}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_abstraction_output_must_match_plant_exits_2(self, tmp_path, capsys):
        spec = copy.deepcopy(topology_runs()["hierarchical"][0])
        c = spec["models"]["abstract"]["c"]
        spec["models"]["abstract"]["c"] = c + [c[0]]
        code = main(["simulate", write_json(tmp_path / "spec.json", spec), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: models.abstract.c must be 2x2, got (3, 2)\n"
        )
        assert not (tmp_path / "r.csv").exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_spec_exit_code(self, data):
        topology = data.draw(st.sampled_from(list(sim.TOPOLOGIES)))
        spec = {**topology_runs()[topology][0], "horizon": 0.05}
        path = data.draw(st.sampled_from(list(json_paths(spec))))
        spec = mutated(spec, path, data.draw(st.sampled_from((DROP, *JUNK))))
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = write_json(Path(tmp) / "spec.json", spec)
            assert run_quietly(["simulate", spec_path, "--out", str(Path(tmp) / "r")]) in (0, 1, 2)

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        path = Path(hierarchical_spec(tmp_path))
        write_json(path, {**json.loads(path.read_text()), "horizon": 1e9, "step": 1e-9})
        code = main(["simulate", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "1000000000000000001 samples (horizon=1e+09, step=1e-09)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()


class TestVerify:
    def _artifact(self, tmp_path, perturb=0.0):
        plant = springmass.concrete()
        p = springmass.embedding_p() + perturb
        return write_json(
            tmp_path / "artifact.json",
            {
                "p": p.tolist(),
                "l_hat": springmass.l_hat().tolist(),
                "f": springmass.abstract().a.tolist(),
                "g": springmass.abstract().b.tolist(),
                "h": np.eye(2).tolist(),
                "m": springmass.m_map().tolist(),
                "s": springmass.abstract().a.tolist(),
                "l": springmass.l_hat().tolist(),
                "w0": [[1.0], [0.0]],
            },
        )

    def test_all_good_checks_pass(self, tmp_path, plant_file, capsys):
        artifact = self._artifact(tmp_path)
        code = main([
            "verify", plant_file, "--artifact", artifact,
            "--checks", "spectra,pbh,excitability,embedding,mrelation",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "[PASS] embedding state residual" in text
        assert "[PASS] mrelation output residual" in text

    def test_spectrum_spanning_the_double_range_passes(self, tmp_path, capsys):
        plant = StateSpaceModel(a=np.diag([1e308, -1e308]), b=np.ones((2, 1)), c=np.ones((1, 2)))
        model = write_json(tmp_path / "sys.json", model_dict(plant))
        artifact = write_json(tmp_path / "empty.json", {})
        assert main(["verify", model, "--artifact", artifact, "--checks", "spectra"]) == 0
        assert "[PASS] spectra: all eigenvalues simple" in capsys.readouterr().out

    def test_perturbed_embedding_fails(self, tmp_path, plant_file, capsys):
        artifact = self._artifact(tmp_path, perturb=1e-3)
        code = main(["verify", plant_file, "--artifact", artifact, "--checks", "embedding"])
        assert code == 1
        assert "[FAIL] embedding state residual" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "checks, field, row",
        [
            ("embedding", "h", "embedding output residual"),
            ("mrelation", "h", "mrelation output residual"),
            ("mrelation", "m", "mrelation state residual"),
        ],
    )
    def test_overflowing_residual_fails_without_a_warning(self, tmp_path, plant_file, capsys, checks, field, row):
        # the suite's filterwarnings = error turns an overflow warning into a traceback;
        # a norm whose squares overflow reads its true value
        artifact = json.loads(Path(self._artifact(tmp_path)).read_text())
        artifact[field][0][0] = 1e300
        path = write_json(tmp_path / "huge.json", artifact)
        assert main(["verify", plant_file, "--artifact", path, "--checks", checks]) == 1
        value = "1.19887e+285" if field == "m" else "1e+300"
        assert f"[FAIL] {row}: value={value} " in capsys.readouterr().out

    def test_overflowing_product_fails_without_a_warning(self, tmp_path, capsys):
        # a scaled by 2e307: a p overflows, so the state residual reads inf and fails;
        # the suite's filterwarnings = error turns an overflow warning into a traceback
        plant = springmass.concrete()
        model = write_json(tmp_path / "sys.json", model_dict(StateSpaceModel(a=2e307 * plant.a, b=plant.b, c=plant.c)))
        path = self._artifact(tmp_path)
        assert main(["verify", model, "--artifact", path, "--checks", "embedding,mrelation"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] embedding state residual: value=inf " in captured.out and captured.err == ""

    def test_zero_l_fails_pbh(self, tmp_path, plant_file, capsys):
        artifact = write_json(
            tmp_path / "artifact.json",
            {"s": springmass.abstract().a.tolist(), "l": np.zeros((2, 2)).tolist()},
        )
        code = main(["verify", plant_file, "--artifact", artifact, "--checks", "pbh"])
        assert code == 1
        assert "[FAIL] pbh: (s, l) observable" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "checks, field, bad, shown",
        [
            ("embedding", "h", [[0.0]], "h must be 2x2, got (1, 1)"),
            ("embedding", "p", np.zeros((3, 2)), "p must be 4x2, got (3, 2)"),
            ("embedding", "f", np.zeros((3, 3)), "f must be 2x2, got (3, 3)"),
            ("embedding", "l_hat", np.zeros((1, 2)), "l_hat must be 2x2, got (1, 2)"),
            ("mrelation", "h", [[1.0, 0.0]], "h must be 2x2, got (1, 2)"),
            ("mrelation", "m", np.zeros((2, 3)), "m_map must be 2x4, got (2, 3)"),
            ("certificate", "k", np.zeros((2, 1)), "k must be 2x4, got (2, 1)"),
            ("certificate", "w", np.eye(3), "w must be 4x4, got (3, 3)"),
            ("certificate", "p", np.zeros((3, 2)), "p must be 4x2, got (3, 2)"),
            ("certificate", "f", np.zeros((2, 3)), "f must be 2x2, got (2, 3)"),
            ("certificate", "l_hat", np.zeros((2, 1)), "l_hat must be 2x2, got (2, 1)"),
            # n_hat is the column count most fields share, so a p with one column
            # too many is blamed on p
            ("certificate", "p", np.zeros((4, 3)), "p must be 4x2, got (4, 3)"),
            ("embedding", "p", np.zeros((4, 3)), "p must be 4x2, got (4, 3)"),
        ],
    )
    def test_misshaped_field_exits_2(self, tmp_path, plant_file, capsys, checks, field, bad, shown):
        # each relation's fields are checked against the plant, not broadcast into a verdict
        if checks == "certificate":
            artifact = certificate_fields(springmass_certificate(), springmass.abstract().a)
        else:
            artifact = json.loads(Path(self._artifact(tmp_path)).read_text())
        path = write_json(tmp_path / "bad.json", {**artifact, field: np.asarray(bad).tolist()})
        assert main(["verify", plant_file, "--artifact", path, "--checks", checks]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {path}: {shown}\n"

    def test_unknown_check_exits_2(self, tmp_path, plant_file, capsys):
        artifact = self._artifact(tmp_path)
        code = main(["verify", plant_file, "--artifact", artifact, "--checks", "bogus"])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_no_check_named_exits_2(self, tmp_path, plant_file, capsys, checks):
        artifact = self._artifact(tmp_path)
        code = main(["verify", plant_file, "--artifact", artifact, "--checks", checks])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: no checks named; known: {', '.join(cli.CHECK_NAMES)}\n"

    @pytest.mark.parametrize(
        "content, shown",
        [
            (b'{"a": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "JSON nested too deeply"),
            (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
            pytest.param(
                b'{"a": ' + b"1" * 4301 + b"}", "Exceeds the limit (4300 digits)",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
                ),
            ),
        ],
        ids=["nested-too-deep", "invalid-utf8", "int-past-digit-limit"],
    )
    def test_unparsable_model_file_exits_2(self, tmp_path, capsys, content, shown):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code = main(["verify", str(path), "--artifact", str(path), "--checks", "spectra"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and shown in err
        assert "Traceback" not in err


DESIGN_CHECKS = (  # the residual table that check_design returns and `abstract` prints
    "m_map p - I", "p m_map + d e - I", "c d", "a p - p f + b l_hat", "h - c p",
    "m_map a - f m_map - g n_map", "g gamma - m_map b", "c - h m_map",
)


def reference_design_table(design, sys):
    """check_design's table by the inline formulas it used before the relation
    functions existed."""
    a, b, c, norm = sys.a, sys.b, sys.c, np.linalg.norm
    return {
        "m_map p - I": norm(design.m_map @ design.p - np.eye(design.order)),
        "p m_map + d e - I": norm(design.p @ design.m_map + design.d @ design.e - np.eye(sys.n)),
        "c d": norm(c @ design.d),
        "a p - p f + b l_hat": norm(a @ design.p - design.p @ design.f + b @ design.l_hat),
        "h - c p": norm(design.h - c @ design.p),
        "m_map a - f m_map - g n_map": norm(
            design.m_map @ a - design.f @ design.m_map - design.g @ design.n_map
        ),
        "g gamma - m_map b": norm(design.g @ design.gamma - design.m_map @ b),
        "c - h m_map": norm(c - design.h @ design.m_map),
    }


def reference_m_relation(sys, abstract, m_map):
    f, g, h = abstract.a, abstract.b, abstract.c
    rhs_n = m_map @ sys.a - f @ m_map
    n_map = np.linalg.lstsq(g, rhs_n, rcond=None)[0]
    gamma = np.linalg.lstsq(g, m_map @ sys.b, rcond=None)[0]
    return {
        "state": np.linalg.norm(g @ n_map - rhs_n),
        "input": np.linalg.norm(g @ gamma - m_map @ sys.b),
        "output": np.linalg.norm(sys.c - h @ m_map),
    }


def reference_certificate(cert, sys, f):
    a_cl = sys.a + sys.b @ cert.k
    w_scale = max(1.0, np.linalg.norm(cert.w, 2))
    lmi = a_cl.T @ cert.w + cert.w @ a_cl + 2 * cert.lam * cert.w
    resid = np.linalg.norm(cert.p @ f - sys.a @ cert.p - sys.b @ cert.l_hat)
    return {
        "w asymmetry": np.linalg.norm(cert.w - cert.w.T) / w_scale,
        "c^T c domination gap": max(0.0, -np.linalg.eigvalsh(cert.w - sys.c.T @ sys.c).min()) / w_scale,
        "decay inequality": max(0.0, np.linalg.eigvalsh(lmi).max()) / w_scale,
        "embedding residual": resid / max(1.0, np.linalg.norm(cert.p)),
    }


def relation_case(name):
    """(plant, design, certificate, the certificate's f) of one case."""
    if name == "random":
        rng = np.random.default_rng(17)
        plant = non_normal_stable_system(rng, n=12, m=2, p=2, cond=50.0)
        f, l_hat = rotation_block(1.5), rng.standard_normal((2, 2))
        p = solve_sylvester(plant.a, f, -(plant.b @ l_hat))
        abstract = StateSpaceModel(a=f, b=rng.standard_normal((2, 2)), c=plant.c @ p)
        cert = synth_certificate(plant, abstract, np.zeros((2, 12)), l_hat=l_hat)
        return plant, design_abstraction(plant, p), cert, f
    plant = springmass.concrete()
    design = design_abstraction(plant, springmass.embedding_p())
    cert, f = springmass_certificate(), springmass.abstract().a
    if name == "perturbed":
        rng = np.random.default_rng(5)
        jitter = lambda x: x + 1e-10 * rng.standard_normal(x.shape)
        design = dataclasses.replace(
            design, **{field.name: jitter(getattr(design, field.name))
                       for field in dataclasses.fields(design)}
        )
        cert = dataclasses.replace(
            cert, **{key: jitter(getattr(cert, key)) for key in ("p", "l_hat", "w", "k")}
        )
    return plant, design, cert, f


@pytest.mark.parametrize("case", ["springmass", "random", "perturbed"])
def test_relation_values_equal_the_inline_formulas(tmp_path, case):
    plant, design, cert, f = relation_case(case)
    abstract = design.abstract_model()
    table = reference_design_table(design, plant)
    assert list(abstraction.check_design(design, plant).items()) == list(table.items())
    m_relation = reference_m_relation(plant, abstract, design.m_map)
    assert abstraction.check_m_relation(plant, abstract, design.m_map) == m_relation
    certificate = reference_certificate(cert, plant, f)
    assert certificate_residuals(cert, plant, f) == certificate
    # design_abstraction's pre-check sums in another order, at the scale it decides on
    pre = np.linalg.norm(design.p @ design.f - plant.b @ design.l_hat - plant.a @ design.p)
    got = abstraction.embedding_residuals(plant, design.p, design.f, design.l_hat)["state"]
    assert abs(got - pre) <= 1e-15 * max(1.0, np.linalg.norm(plant.a @ design.p))

    save_model(tmp_path / "plant.json", plant)
    fields = {key: getattr(design, key) for key in ("p", "l_hat", "f", "g", "h")}
    fields["m"] = design.m_map
    design_file = write_json(tmp_path / "design.json", {k: v.tolist() for k, v in fields.items()})
    cert_file = write_json(tmp_path / "cert.json", certificate_fields(cert, f))
    shown = {}
    for artifact, checks in ((design_file, "embedding,mrelation"), (cert_file, "certificate")):
        argv = ["verify", str(tmp_path / "plant.json"), "--artifact", artifact, "--checks", checks]
        shown.update((c.name, c.value) for c in cli.cmd_verify(cli.build_parser().parse_args(argv)).checks)
    a_cl = plant.a + plant.b @ cert.k
    assert shown == {
        "embedding state residual": np.linalg.norm(
            design.p @ design.f - plant.a @ design.p - plant.b @ design.l_hat
        ),
        "embedding output residual": np.linalg.norm(design.h - plant.c @ design.p),
        **{f"mrelation {name} residual": value for name, value in m_relation.items()},
        "certificate: a + b k Hurwitz": float(eigenvalues(a_cl).is_hurwitz()),
        **{f"certificate: {name}": value for name, value in certificate.items()},
    }

    save_json(tmp_path / "p.json", {"p": design.p})
    argv = ["abstract", str(tmp_path / "plant.json"), "--p", str(tmp_path / "p.json")]
    report = cli.cmd_abstract(cli.build_parser().parse_args([*argv, "--out", str(tmp_path / "d")]))
    redesign = design_abstraction(plant, design.p)
    assert [(c.name, c.value) for c in report.checks] == [
        (f"residual {name}", value) for name, value in reference_design_table(redesign, plant).items()
    ]
    assert [c.name for c in report.checks] == [f"residual {name}" for name in DESIGN_CHECKS]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["reduce", "abstract", "verify"])
def test_bad_tol_exits_2_before_any_work(tmp_path, plant_file, capsys, command, tol):
    s, l_hat, out = springmass.abstract().a, springmass.l_hat(), tmp_path / "out"
    given = {  # inputs on which each command passes every check with the default --tol
        "reduce": ("--interp", {"s": s, "l": l_hat, "g": np.eye(2)}, "--out", out),
        "abstract": ("--p", {"p": springmass.embedding_p()}, "--out", out),
        "verify": ("--artifact", {"s": s, "l": l_hat}, "--checks", "pbh"),
    }[command]
    argv = [command, plant_file]
    for arg in given:
        if isinstance(arg, dict):
            arg = write_json(tmp_path / "in.json", {key: v.tolist() for key, v in arg.items()})
        argv.append(str(arg))
    assert main([*argv, f"--tol={tol}"]) == 2
    want = f"error: --tol must be a finite non-negative number, got {float(tol)}\n"
    assert capsys.readouterr().err == want
    assert not list(tmp_path.glob("out*"))
    assert run_quietly(argv) == 0


class TestParserCache:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_failed_calls_leave_the_parser_as_built(self, tmp_path, plant_file, capsys):
        interp = write_json(
            tmp_path / "interp.json",
            {"s": springmass.abstract().a.tolist(), "l": springmass.l_hat().tolist(), "g": np.eye(2).tolist()},
        )
        argv = ["reduce", plant_file, "--interp", interp, "--out", str(tmp_path / "rom.json")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mode", "bogus"])  # an argparse error
        assert exc.value.code == 2
        assert main([*argv, "--tol", "nan"]) == 2
        capsys.readouterr()
        assert main(argv) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        fresh = subprocess.run(
            [sys.executable, "-m", "momabs.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (fresh.returncode, fresh.stdout) == (0, capsys.readouterr().out)


class TestVerifyCertificate:
    """``verify --checks certificate`` and synth_certificate's own check
    apply one rule, abstraction.certificate_residuals."""

    CHECK = re.compile(r"^\[(PASS|FAIL)\] certificate: (.*): value=(\S+) threshold=\S+$", re.M)

    def _verify(self, tmp_path, capsys, model, artifact):
        """Exit code of verify --checks certificate, its table's values by check
        name, and its stderr."""
        save_model(tmp_path / "model.json", model)
        path = write_json(tmp_path / "cert.json", artifact)
        code = main([
            "verify", str(tmp_path / "model.json"), "--artifact", path, "--checks", "certificate",
        ])
        out = capsys.readouterr()
        return code, {m.group(2): float(m.group(3)) for m in self.CHECK.finditer(out.out)}, out.err

    @staticmethod
    def _shown(residuals):
        """The table's residuals, equal to within print precision and the rounding
        that the artifact's JSON round trip may change (1e-13)."""
        shown = {"a + b k Hurwitz": 1.0}
        for name, value in residuals.items():
            shown[name] = pytest.approx(value, rel=1e-5, abs=1e-13)
        return shown

    def test_synthesized_certificates_pass(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        plant = non_normal_stable_system(rng, n=16, m=2, p=2, cond=50.0)
        f, l_hat = rotation_block(1.5), rng.standard_normal((2, 2))
        p = solve_sylvester(plant.a, f, -(plant.b @ l_hat))
        abstract = StateSpaceModel(a=f, b=rng.standard_normal((2, 2)), c=plant.c @ p)
        cases = [
            (springmass.concrete(), springmass.abstract(), springmass_certificate()),
            (plant, abstract, synth_certificate(plant, abstract, np.zeros((2, 16)), l_hat=l_hat)),
        ]
        assert np.linalg.norm(cases[1][2].w, 2) > 1e3
        for model, abstract, cert in cases:
            artifact = certificate_fields(cert, abstract.a)
            code, shown, _ = self._verify(tmp_path, capsys, model, artifact)
            assert code == 0
            residuals = certificate_residuals(cert, model, abstract.a)
            assert max(residuals.values()) <= RESIDUAL_TOL
            assert shown == self._shown(residuals)

    def test_shifted_certificate_gets_one_verdict(self, tmp_path, capsys):
        # w + t I with the decay inequality's top eigenvalue at 1e-7: below
        # RESIDUAL_TOL and --tol relative to ||w||_2 ~ 257, above --tol absolutely
        plant, cert = springmass.concrete(), springmass_certificate()
        a_cl = plant.a + plant.b @ cert.k

        def top(t):
            w = cert.w + t * np.eye(plant.n)
            return np.linalg.eigvalsh(a_cl.T @ w + w @ a_cl + 2 * cert.lam * w).max()

        lo, hi = 0.0, 1.0
        for _ in range(80):
            lo, hi = ((lo + hi) / 2, hi) if top((lo + hi) / 2) < 1e-7 else (lo, (lo + hi) / 2)
        shifted = dataclasses.replace(cert, w=cert.w + hi * np.eye(plant.n))
        assert top(hi) == pytest.approx(1e-7, rel=1e-6)
        residuals = certificate_residuals(shifted, plant, springmass.abstract().a)
        w_norm = np.linalg.norm(shifted.w, 2)
        assert 250 < w_norm < 265
        assert residuals["decay inequality"] == pytest.approx(1e-7 / w_norm, rel=1e-6)
        assert max(residuals.values()) <= RESIDUAL_TOL
        code, shown, _ = self._verify(
            tmp_path, capsys, plant, certificate_fields(shifted, springmass.abstract().a)
        )
        assert code == 0
        assert shown == self._shown(residuals)

    def test_asymmetric_w_fails(self, tmp_path, capsys):
        # eigvalsh reads one triangle: with w[0, 3] raised by 1e3 the domination
        # and decay rows still pass, yet e^T w e < 0 at e = (1, 0, 0, -1)
        plant, cert = springmass.concrete(), springmass_certificate()
        w = cert.w.copy()
        w[0, 3] += 1e3
        e = np.array([1.0, 0.0, 0.0, -1.0])
        assert e @ w @ e < 0
        artifact = certificate_fields(dataclasses.replace(cert, w=w), springmass.abstract().a)
        code, shown, _ = self._verify(tmp_path, capsys, plant, artifact)
        assert code == 1
        assert shown["w asymmetry"] == pytest.approx(np.sqrt(2) * 1e3 / np.linalg.norm(w, 2), rel=1e-5)
        assert all(shown[name] <= 1e-8 for name in ("c^T c domination gap", "decay inequality"))

    @pytest.mark.parametrize(
        "patch, shown",
        [
            ({"w": DROP}, "missing field 'w'"),
            ({"w": "abc"}, "field 'w' is not a numeric array"),
            ({"k": [[1.0, {}]]}, "field 'k' is not a numeric array"),
            ({"lam": DROP}, "field 'lam' must be a number, got None"),
            ({"lam": [2.0]}, "field 'lam' must be a number, got [2.0]"),
            ({"lam": 0}, "field 'lam' must be a finite positive number, got 0.0"),
            ({"lam": -5}, "field 'lam' must be a finite positive number, got -5.0"),
            ({"lam": math.nan}, "field 'lam' must be a finite positive number, got nan"),
            ({"lam": 1e308}, "decay-inequality matrix is not finite at lam = 1e+308"),
            ({"w": [[math.inf, 0.0, 0.0, 0.0], *np.eye(4)[1:].tolist()]},
             "field 'w' has non-finite entries"),
            ({"k": [[math.nan, 0.0, 0.0, 0.0], [0.0] * 4]}, "field 'k' has non-finite entries"),
        ],
        ids=[
            "missing-w", "w-string", "k-entry-object", "missing-lam", "lam-list",
            "lam-zero", "lam-negative", "lam-nan", "lam-huge", "w-infinity", "k-nan",
        ],
    )
    def test_missing_or_non_numeric_field_exits_2(self, tmp_path, capsys, patch, shown):
        artifact = certificate_fields(springmass_certificate(), springmass.abstract().a)
        artifact = {key: value for key, value in {**artifact, **patch}.items() if value is not DROP}
        code, _, err = self._verify(tmp_path, capsys, springmass.concrete(), artifact)
        assert code == 2
        assert err == f"error: {tmp_path / 'cert.json'}: {shown}\n"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_inputs_exit_code(self, data):
        plant, abstract = springmass.concrete(), springmass.abstract()
        cert = springmass_certificate()
        artifact = {
            **certificate_fields(cert, abstract.a),
            "g": abstract.b.tolist(), "h": abstract.c.tolist(), "m": springmass.m_map().tolist(),
            "s": abstract.a.tolist(), "l": springmass.l_hat().tolist(), "w0": [1.0, 0.0],
            "q": rotation_block(5.0).tolist(), "r": np.eye(2).tolist(),
        }
        docs = {"model": model_dict(plant), "artifact": artifact}
        which = data.draw(st.sampled_from(sorted(docs)))
        path = data.draw(st.sampled_from(list(json_paths(docs[which]))))
        docs[which] = mutated(docs[which], path, data.draw(st.sampled_from((DROP, *JUNK))))
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_docs(tmp, docs)
            argv = ["verify", paths["model"], "--artifact", paths["artifact"]]
            argv += ["--checks", ",".join(cli.CHECK_NAMES)]
            assert run_quietly(argv) in (0, 1, 2)


# grids for paper-example: non-finite, non-positive, not a whole number of
# steps, too few trailing samples (0.005 / 1e-3), over the trajectory cap
# (1e9 / 1e-3), and short valid ones
PAPER_STEPS = (math.nan, math.inf, -math.inf, -1e-3, 0.0, 1e-3, 2e-3, 0.03, 0.3)
PAPER_HORIZONS = (math.nan, math.inf, -1.0, 0.0, 0.005, 0.02, 0.1, 0.3, 1e9)


class TestPaperExample:
    @settings(max_examples=40, deadline=None)
    @given(
        step=st.sampled_from(PAPER_STEPS) | st.floats(1e-3, 0.5),
        horizon=st.sampled_from(PAPER_HORIZONS),
        seed=st.integers(-3, 2**64),
    )
    @example(step=math.nan, horizon=0.1, seed=0)
    @example(step=1e-3, horizon=math.inf, seed=0)
    @example(step=-1e-3, horizon=0.1, seed=0)
    @example(step=0.03, horizon=0.1, seed=0)  # 3.33 steps
    @example(step=1e-3, horizon=0.005, seed=0)  # 6 samples, 2 of them trailing
    @example(step=1e-3, horizon=1e9, seed=0)  # 1e12 samples of 6 states
    @example(step=0.1, horizon=0.3, seed=-1)
    def test_exit_contract(self, step, horizon, seed):
        argv = [f"--step={step!r}", f"--horizon={horizon!r}", f"--seed={seed}"]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["paper-example", "--out", tmp, *argv])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if seed < 0:
            want = f"error: --seed must be a non-negative integer, got {seed}\n"
            assert (code, err.getvalue()) == (2, want)

    @pytest.mark.parametrize("horizon", ["100", "105"])
    def test_unstable_grid_exits_1_with_finite_values(self, tmp_path, capsys, horizon):
        # RK4 at step 2.5 diverges: by t = 100 the err rows reach about 1e154, by
        # t = 105 about 1e162, so the squares of finite rows pass the double range
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["paper-example", "--out", str(tmp_path), "--step", "2.5", "--horizon", horizon])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        report = (tmp_path / "report.txt").read_text()
        values = re.findall(r"^\[(?:PASS|FAIL)\] .*: value=(\S+) threshold=", report, re.M)
        assert len(values) == 14 and all(math.isfinite(float(v)) for v in values)
        assert "result: FAILED" in report

    def test_checks_match_the_benchmark_reference(self, tmp_path, capsys):
        # the benchmark's recorded check values and its tolerances, read from bench/
        path = Path(__file__).parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        recorded = json.loads(bench.PAPER_REFERENCE.read_text(encoding="utf-8"))
        wrong = []
        for seed in range(bench.PAPER_SEEDS):
            assert main(["paper-example", "--out", str(tmp_path), "--seed", str(seed)]) == 0
            checks, reference = bench.parse_checks(capsys.readouterr().out), recorded[str(seed)]
            assert checks.keys() == reference.keys()
            for name, (passed, value, threshold) in checks.items():
                ref_passed, ref_value, ref_threshold = reference[name]
                if (
                    passed != ref_passed
                    or abs(value - ref_value) > bench.VALUE_RTOL * abs(ref_value) + bench.VALUE_ATOL
                    or abs(threshold - ref_threshold) > bench.THRESHOLD_RTOL * abs(ref_threshold)
                ):
                    wrong.append((seed, name, (passed, value, threshold), reference[name]))
        assert wrong == []

    def test_deterministic_outputs(self, tmp_path, capsys):
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            code = main(["paper-example", "--out", str(d), "--seed", "0"])
            assert code == 0
        for name in (
            "hierarchical_free",
            "hierarchical_forced",
            "link_free",
            "link_forced",
        ):
            b1 = (dirs[0] / f"{name}.csv").read_bytes()
            b2 = (dirs[1] / f"{name}.csv").read_bytes()
            assert b1 == b2
        report = (dirs[0] / "report.txt").read_text()
        assert "[FAIL]" not in report and "result: OK" in report
