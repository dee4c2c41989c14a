import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momabs import springmass
from momabs.cli import main
from momabs.linalg import place_poles
from momabs.modelio import load_model, save_matrix, save_model


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.json"
    save_model(path, springmass.concrete(), name="plant", role="concrete")
    return str(path)


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


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

    def test_malformed_json_exits_2(self, tmp_path, plant_file, capsys):
        bad = tmp_path / "interp.json"
        bad.write_text('{"s": [[0, 1],\n')
        code = main(["reduce", plant_file, "--interp", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "invalid JSON at line" in capsys.readouterr().err

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

    def test_inadmissible_p_exits_2(self, tmp_path, plant_file, capsys):
        p_file = write_json(tmp_path / "p.json", {"p": np.ones((4, 2)).tolist()})
        code = main(["abstract", plant_file, "--p", p_file, "--out", str(tmp_path / "d")])
        assert code == 2
        assert "injective" in capsys.readouterr().err


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
            ({"channels": [[{"amplitude": 1.0}]]}, "field 'kind'"),
            ({"channels": {}}, "'channels' list"),
        ],
        ids=["unknown-term-key", "non-numeric-field", "missing-kind", "channels-not-list"],
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

    def test_perturbed_embedding_fails(self, tmp_path, plant_file, capsys):
        artifact = self._artifact(tmp_path, perturb=1e-3)
        code = main(["verify", plant_file, "--artifact", artifact, "--checks", "embedding"])
        assert code == 1
        assert "[FAIL] embedding state residual" in capsys.readouterr().out

    def test_zero_l_fails_pbh(self, tmp_path, plant_file, capsys):
        artifact = write_json(
            tmp_path / "artifact.json",
            {"s": springmass.abstract().a.tolist(), "l": np.zeros((2, 2)).tolist()},
        )
        code = main(["verify", plant_file, "--artifact", artifact, "--checks", "pbh"])
        assert code == 1
        assert "[FAIL] pbh: (s, l) observable" in capsys.readouterr().out

    def test_unknown_check_exits_2(self, tmp_path, plant_file, capsys):
        artifact = self._artifact(tmp_path)
        code = main(["verify", plant_file, "--artifact", artifact, "--checks", "bogus"])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err


class TestPaperExample:
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


class TestRunBenchmarkScript:
    def test_runs_from_source_checkout(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "result: OK" in proc.stdout
