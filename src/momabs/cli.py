"""Command-line front end.

Subcommands: reduce, abstract, simulate, verify, paper-example.  Models and
specs travel as JSON, trajectories as CSV (17 significant digits), plots as
self-contained SVG.
"""

from __future__ import annotations

import argparse
import functools
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import abstraction, modelio, moments, sim, springmass
from .linalg import (
    StateSpaceModel,
    _norm,
    eigenvalues,
    excitable,
    pbh_observable,
    pbh_reachable,
    place_poles,
)
from .modelio import (
    ModelFileError,
    RunReport,
    load_json,
    load_model,
    matrix_field,
    model_from_dict,
    numeric_array,
    numeric_field,
    write_csv,
    write_svg,
)
from .signals import SignalSpec


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 0.0)
        if not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"--tol must be a finite non-negative number, got {tol}")
        report = args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="momabs")
    sub = parser.add_subparsers(dest="command", required=True)

    red = sub.add_parser("reduce", help="build a moment-matching reduced model")
    red.add_argument("model")
    red.add_argument("--interp", required=True, help="interpolant JSON (s/l, q/r, or both)")
    red.add_argument("--mode", choices=("direct", "swapped", "two-sided"), default="direct")
    red.add_argument("--out", required=True)
    red.add_argument("--tol", type=float, default=1e-8)
    red.set_defaults(func=cmd_reduce)

    ab = sub.add_parser("abstract", help="geometric abstraction design from p")
    ab.add_argument("model")
    ab.add_argument("--p", required=True, dest="p_file", help="JSON with the embedding matrix")
    ab.add_argument("--out", required=True, help="output prefix")
    ab.add_argument("--tol", type=float, default=1e-8)
    ab.set_defaults(func=cmd_abstract)

    si = sub.add_parser("simulate", help="run an interconnection spec")
    si.add_argument("spec")
    si.add_argument("--out", required=True, help="output prefix for .csv/.svg")
    si.add_argument("--step", type=float, default=None)
    si.add_argument("--horizon", type=float, default=None)
    si.set_defaults(func=cmd_simulate)

    ve = sub.add_parser("verify", help="check model/artifact properties")
    ve.add_argument("model")
    ve.add_argument("--artifact", required=True)
    ve.add_argument("--checks", required=True, help="comma list: spectra,pbh,excitability,embedding,mrelation,certificate")
    ve.add_argument("--tol", type=float, default=1e-8)
    ve.set_defaults(func=cmd_verify)

    pe = sub.add_parser("paper-example", help="reproduce the spring-mass benchmark end to end")
    pe.add_argument("--out", required=True, help="output directory")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--step", type=float, default=1e-3)
    pe.add_argument("--horizon", type=float, default=10.0)
    pe.set_defaults(func=cmd_paper_example)
    return parser


def cmd_reduce(args) -> RunReport:
    report = RunReport(command="reduce")
    sys_model = load_model(args.model)
    data = load_json(args.interp)
    get = lambda key: numeric_field(data, key, args.interp)
    if args.mode in ("direct", "two-sided"):
        di = moments.DirectInterpolant(s=get("s"), l=get("l"))
    if args.mode in ("swapped", "two-sided"):
        si = moments.SwappedInterpolant(q=get("q"), r=get("r"))
    if args.mode == "direct":
        rom = moments.rom_direct(sys_model, di, get("g"))
    elif args.mode == "swapped":
        rom = moments.rom_swapped(sys_model, si, get("h"))
    else:
        rom = moments.rom_two_sided(sys_model, di, si)

    sides = [("direct", "s", sys_model.m, moments.moment_direct, moments.tangential_mismatch_direct),
             ("swapped", "q", sys_model.p, moments.moment_swapped, moments.tangential_mismatch_swapped)]
    for side, tag, channels, moment, mismatch in sides:
        if args.mode not in (side, "two-sided"):
            continue
        interp = di if side == "direct" else si
        full, red = moment(sys_model, interp).moment, moment(rom, interp).moment
        report.add(f"{side} moment residual", _norm(full - red) / max(1.0, _norm(full)), args.tol)
        if channels == 1:
            _interpolation_checks(report, sys_model, rom, interp, args.tol, tag)
        else:
            value = mismatch(sys_model, rom, interp)
            report.add(f"tangential transfer match at sigma({tag})", value, args.tol)
    modelio.save_model(args.out, rom, role="abstract")
    report.outputs.append(args.out)
    return report


def _interpolation_checks(report, full, rom, interp, tol, tag="s"):
    """One transfer match per point of sigma(s) (sigma(q) for tag "q") with imag >= 0,
    each side evaluated by transfer_at, independently of the moment solve."""
    mu = eigenvalues(interp.s if tag == "s" else interp.q).eigenvalues
    mu = mu[mu.imag >= 0]  # conjugate value is redundant for real systems
    for lam, tf_full, tf_rom in zip(mu, moments.transfer_at(full, mu), moments.transfer_at(rom, mu)):
        rel = _norm(tf_full - tf_rom) / max(1.0, _norm(tf_full))
        report.add(f"transfer match at sigma({tag}) point {lam:.4g}", rel, tol)


def cmd_abstract(args) -> RunReport:
    report = RunReport(command="abstract")
    sys_model = load_model(args.model)
    p = matrix_field(load_json(args.p_file), "p", args.p_file)
    design, residuals = abstraction._design_and_residuals(sys_model, p)
    for name, value in residuals.items():
        report.add(f"residual {name}", value, args.tol)
    design_path, final_path = f"{args.out}.design.json", f"{args.out}.final.json"
    # the design's fields in their order, m_map and n_map under the keys m and n that verify reads
    modelio.save_json(design_path, {key.removesuffix("_map"): value for key, value in vars(design).items()})
    modelio.save_model(final_path, abstraction.final_abstraction(design, sys_model), role="abstract")
    report.outputs += [design_path, final_path]
    return report


def _typed(value, kind, name: str, path):
    """``value`` if it is a JSON object (``kind`` dict) or a number that fits a
    float (``kind`` float); otherwise a ModelFileError naming the field."""
    if kind is dict and isinstance(value, dict):
        return value
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    what = "a JSON object" if kind is dict else "a number"
    raise ModelFileError(f"{path}: field {name!r} must be {what}, got {reprlib.repr(value)}")


def _spec_from_file(path, step=None, horizon=None) -> sim.InterconnectionSpec:
    data = load_json(path)
    known = ("topology", "models", "links", "initial", "signal", "horizon", "step")
    if unknown := sorted(set(data) - set(known)):
        raise ModelFileError(f"{path}: unknown field(s) {', '.join(map(repr, unknown))}; known: {', '.join(known)}")
    models = {}
    for name, model in _typed(data.get("models"), dict, "models", path).items():
        field = f"models.{name}"
        models[name] = model_from_dict(_typed(model, dict, field, path), path, field + ".")
    links = {
        name: numeric_array(value, f"links.{name}", path)
        for name, value in _typed(data.get("links", {}), dict, "links", path).items()
    }
    initial = {
        name: numeric_array(value, f"initial.{name}", path)
        for name, value in _typed(data.get("initial", {}), dict, "initial", path).items()
    }
    signal = SignalSpec.from_dict(data["signal"]) if "signal" in data else SignalSpec.zero(1)
    if horizon is None:
        horizon = _typed(data.get("horizon", sim.DEFAULT_HORIZON), float, "horizon", path)
    if step is None:
        step = _typed(data.get("step", sim.DEFAULT_STEP), float, "step", path)
    if "topology" not in data:
        raise ModelFileError(f"{path}: missing field 'topology'")
    return sim.InterconnectionSpec(
        topology=data["topology"],
        models=models,
        links=links,
        initial=initial,
        signal=signal,
        horizon=horizon,
        step=step,
    )


def cmd_simulate(args) -> RunReport:
    report = RunReport(command="simulate")
    spec = _spec_from_file(args.spec, args.step, args.horizon)
    traj = sim.integrate(spec)
    report.outputs += _write_run(args.out, traj, spec.topology, _norm(traj.outputs["err"], axis=1))
    report.add_flag("simulation finite", True)
    return report


def _write_run(prefix, traj: sim.Trajectory, title: str, err_norm: np.ndarray) -> list:
    """Write a run's outputs, its topology's ``err`` among them, to prefix.csv,
    and those plus ``err_norm``, the row norms of ``err``, to prefix.svg; returns both paths."""
    csv_path, svg_path = f"{prefix}.csv", f"{prefix}.svg"
    write_csv(csv_path, traj.times, traj.outputs)
    write_svg(svg_path, traj.times, {**traj.outputs, "err_norm": err_norm}, title=title)
    return [csv_path, svg_path]


CHECK_NAMES = ("spectra", "pbh", "excitability", "embedding", "mrelation", "certificate")


def cmd_verify(args) -> RunReport:
    report = RunReport(command="verify")
    sys_model = load_model(args.model)
    artifact = load_json(args.artifact)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise ValueError(f"no checks named; known: {', '.join(CHECK_NAMES)}")
    for check in checks:
        if check not in CHECK_NAMES:
            raise ValueError(f"unknown check {check!r}; known: {', '.join(CHECK_NAMES)}")
    get = lambda key: numeric_field(artifact, key, args.artifact)
    for check in checks:
        if check == "spectra":
            spec = eigenvalues(sys_model.a)
            report.add_flag("spectra: all eigenvalues simple", spec.all_simple)
        elif check == "pbh":
            if "s" in artifact and "l" in artifact:
                report.add_flag("pbh: (s, l) observable", pbh_observable(get("s"), get("l")))
            if "q" in artifact and "r" in artifact:
                report.add_flag("pbh: (q, r) reachable", pbh_reachable(get("q"), get("r")))
            if not {"s", "l"} <= artifact.keys() and not {"q", "r"} <= artifact.keys():
                raise ValueError("pbh check needs (s, l) or (q, r) in the artifact")
        elif check == "excitability":
            report.add_flag("excitability of (s, w0)", excitable(get("s"), get("w0")))
        elif check == "embedding":
            p, l_hat, f, h = (get(key) for key in ("p", "l_hat", "f", "h"))
            residuals = _in_file(args.artifact, abstraction.embedding_residuals, sys_model, p, f, l_hat, h)
            for name, value in residuals.items():
                report.add(f"embedding {name} residual", value, args.tol)
        elif check == "mrelation":
            abstract = _in_file(args.artifact, StateSpaceModel, get("f"), get("g"), get("h"))
            residuals = _in_file(args.artifact, abstraction.check_m_relation, sys_model, abstract, get("m"))
            for name, value in residuals.items():
                report.add(f"mrelation {name} residual", value, args.tol)
        elif check == "certificate":
            lam = _typed(artifact.get("lam"), float, "lam", args.artifact)
            if not (np.isfinite(lam) and lam > 0):  # lam <= 0 certifies no decay
                raise ModelFileError(
                    f"{args.artifact}: field 'lam' must be a finite positive number, got {lam}"
                )
            cert = abstraction.SimulationCertificate(
                p=get("p"), l_hat=get("l_hat"), w=get("w"),
                lam=lam, k=get("k"), r_hat=get("r_hat"),
            )
            f = get("f") if "f" in artifact else None
            # before a + b k: it checks the shapes, and a huge lam overflows 2 lam w
            residuals = _in_file(args.artifact, abstraction.certificate_residuals, cert, sys_model, f)
            a_cl = sys_model.a + sys_model.b @ cert.k
            report.add_flag("certificate: a + b k Hurwitz", eigenvalues(a_cl).is_hurwitz())
            for name, value in residuals.items():
                report.add(f"certificate: {name}", value, args.tol)
    return report


def _in_file(path, fn, *args):
    """fn(*args), with a ValueError it raises reported against the file at ``path``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def cmd_paper_example(args) -> RunReport:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    report = RunReport(command="paper-example")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    step, horizon = args.step, args.horizon

    plant = springmass.concrete()
    abstract = springmass.abstract()

    spec = eigenvalues(plant.a)
    expected = np.array([3.1623j, -3.1623j, 1.5811j, -1.5811j])
    gap = max(np.abs(spec.eigenvalues - e).min() for e in expected)
    report.add("plant spectrum vs reference", float(gap), 1e-3)

    p_ref = springmass.embedding_p()
    k = place_poles(plant.a, plant.b, springmass.closed_loop_target(), seed=args.seed)
    cert = abstraction.synth_certificate(plant, abstract, k, l_hat=springmass.l_hat())
    report.add("embedding matrix vs reference", float(np.abs(cert.p - p_ref).max()), 1e-9)
    report.add_flag("output map c p = I exactly", bool(np.array_equal(plant.c @ p_ref, np.eye(2))))

    design = abstraction.design_abstraction(plant, p_ref)
    report.add("design m vs reference", float(np.abs(design.m_map - springmass.m_map()).max()), 1e-8)
    g_ref = np.hstack([np.zeros((2, 2)), np.eye(2)])
    report.add("design g vs reference", float(np.abs(design.g - g_ref).max()), 1e-8)
    report.add("design gamma vs reference", float(np.abs(design.gamma - springmass.gamma_map()).max()), 1e-8)
    n_ref = springmass.n_map_published()
    report.add(
        "design n rows 3-4 vs reference",
        float(np.abs(design.n_map[2:] - n_ref[2:]).max()),
        1e-8,
    )
    if abs(design.n_map[0, 0] - n_ref[0, 0]) > 1e-6:
        report.notes.append(
            f"n entry (1,1): construction gives {design.n_map[0, 0]:+g}, reference prints "
            f"{n_ref[0, 0]:+g}; suspected sign typo, rows 1-2 are unconstrained by the "
            "witness equations for this g"
        )

    k_hat = place_poles(abstract.a, abstract.b, springmass.abstract_target(), seed=args.seed)
    link = abstraction.StabilizedLink(n_map=design.n_map, gamma=design.gamma, k_hat=k_hat)

    x0, xi0 = springmass.X0, springmass.XI0

    traj, err = sim.run_hierarchical(
        plant, abstract, cert, SignalSpec.zero(4), x0, xi0, horizon, step
    )
    report.add("hierarchical free: terminal output error", err.terminal_norm, 1e-3)
    report.add(
        "hierarchical free: fitted decay rate",
        err.decay_rate or 0.0,
        0.8 * cert.lam,
        lower_is_pass=False,
    )
    report.outputs += _write_run(out_dir / "hierarchical_free", traj, "hierarchical free", err.out_err)

    traj, err = sim.run_hierarchical(
        plant, abstract, cert, springmass.v_signal(), x0, xi0, horizon, step
    )
    report.add(
        "hierarchical forced: sup error within guaranteed bound",
        err.extras["sup_e_y"],
        err.extras["bound"],
    )
    report.outputs += _write_run(out_dir / "hierarchical_forced", traj, "hierarchical forced", err.out_err)

    traj, err = sim.run_m_direct(
        plant, abstract, link, design.m_map, SignalSpec.zero(2), x0, xi0, horizon, step
    )
    report.add("link free: trailing output error", err.sup_norm, 1e-3)
    report.add("link free: parallel error-dynamics gap", err.extras["parallel_gap_sup"], 1e-6)
    report.outputs += _write_run(out_dir / "link_free", traj, "link free", err.out_err)

    traj, err = sim.run_m_direct(
        plant, abstract, link, design.m_map, springmass.u_signal(), x0, xi0, horizon, step
    )
    report.add("link forced: trailing output error", err.sup_norm, 1e-3)
    report.add("link forced: parallel error-dynamics gap", err.extras["parallel_gap_sup"], 1e-6)
    report.outputs += _write_run(out_dir / "link_forced", traj, "link forced", err.out_err)

    (out_dir / "report.txt").write_text(report.render() + "\n", encoding="utf-8")
    return report


if __name__ == "__main__":
    sys.exit(main())
