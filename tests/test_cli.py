from pathlib import Path

import numpy as np
import pytest

from biload.cli import build_controls, main, parse_config
from biload.errors import ConfigError
from biload.mesh import build_mesh
from biload.models import make_model, make_params

MINIMAL = """\
[mesh]
T_final = 1.0
Nt = 8
x_a = 0.0
x_b = 1.0
Nx = 8

[model]
name = volterra_exp
"""


def test_parse_minimal_applies_defaults():
    spec = parse_config(MINIMAL)
    assert spec.model.name == "volterra_exp"
    assert spec.solver["tol"] == 1e-10
    assert spec.solver["relax"] == "auto"
    assert spec.optimize.max_outer == 50
    assert spec.controls["u"] == ("const", 0.0)
    assert spec.outdir == "out"


def test_parse_comments_and_values():
    text = MINIMAL + """
[solver]
tol = 1e-8    # loose
relax = 0.5

[controls]
u = bump_x
w0 = 0.25

[output]
dir = results
"""
    spec = parse_config(text)
    assert spec.solver["tol"] == 1e-8
    assert spec.solver["relax"] == 0.5
    assert spec.controls["u"] == ("profile", "bump_x")
    assert spec.controls["w0"] == ("const", 0.25)
    assert spec.outdir == "results"


def test_parse_range_error_names_key():
    bad = MINIMAL.replace("Nt = 8", "Nt = 3")
    with pytest.raises(ConfigError, match="Nt"):
        parse_config(bad)


def test_parse_unknown_key_reports_line():
    text = MINIMAL + "\n[solver]\nrelaxx = 0.5\n"
    lineno = text.splitlines().index("relaxx = 0.5") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}"):
        parse_config(text)


def test_parse_rejects_unknown_section_model_param_and_profile():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ConfigError, match="no parameter"):
        parse_config(MINIMAL.replace("name = volterra_exp", "name = heat\nKK = 2"))
    with pytest.raises(ConfigError, match="control init"):
        parse_config(MINIMAL + "\n[controls]\nu = wavy\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("[mesh]\nT_final = 1.0\nNt = 8\nx_a = 0\nx_b = 1\nNx = 8\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "\n[solver]\ntol = 1e-8\ntol = 1e-9\n")


def test_build_controls_profiles():
    spec = parse_config(
        MINIMAL.replace("volterra_exp", "heat") + "\n[controls]\nu = sin_x\nw = 1.5\n"
    )
    mesh = build_mesh(**spec.mesh)
    problem = make_model(spec.model)
    ctrl = build_controls(spec, mesh, problem)
    np.testing.assert_allclose(ctrl.u[0, :, 0], np.sin(np.pi * mesh.x))
    np.testing.assert_allclose(ctrl.w, 1.5)


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_solve_writes_accurate_trajectory(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        MINIMAL.replace("Nt = 8", "Nt = 200").replace("Nx = 8", "Nx = 4")
        + "\n[solver]\ntol = 1e-12\n",
    )
    out = tmp_path / "solved"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "phi.csv").read_text().splitlines()[1:]
    worst = 0.0
    for row in rows:
        t, x, _, value = row.split(",")
        if 0.0 < float(x) < 1.0:
            worst = max(worst, abs(float(value) - np.exp(float(t))))
    assert worst <= 1e-4
    assert (out / "solve_report.csv").exists()
    assert (out / "phi_bd.csv").exists()


def test_cost_command(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "cost"
    assert main(["cost", "--config", str(cfg), "--out", str(out)]) == 0
    assert "J = " in capsys.readouterr().out
    assert (out / "cost.csv").exists()


def test_grad_check_exit_status(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL.replace("volterra_exp", "lq_volterra"))
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "grad_check.csv").read_text().splitlines()[0]
    assert header == "block,direction,fd,adjoint,dto,err_adjoint,err_dto"
    for name in ("psi.csv", "omega.csv", "psi0.csv", "omegaT.csv", "grad_u.csv"):
        assert (out / name).exists()


def test_optimize_command(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        MINIMAL.replace("volterra_exp", "lq_volterra")
        + "\n[optimize]\nmax_outer = 5\n",
    )
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,J,gnorm,step,forward_iterations"
    costs = [float(line.split(",")[1]) for line in history[1:]]
    assert all(a >= b - 1e-14 for a, b in zip(costs, costs[1:]))
    assert (out / "u.csv").exists()


def test_curve_demo_residuals(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "curve"
    assert main(["curve-demo", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [8, 16, 32, 64, 128, 256]
    assert all(abs(float(r.split(",")[1])) <= 1e-13 for r in rows)


def test_ibp_demo(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "ibp"
    assert main(["ibp-demo", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "ibp.csv").read_text().splitlines()[1:]
    r1 = [abs(float(r.split(",")[3])) for r in rows]
    assert r1[0] > r1[1] > r1[2]


def test_refine_command(tmp_path):
    cfg = _write_cfg(tmp_path, MINIMAL.replace("Nt = 8", "Nt = 8"))
    out = tmp_path / "refine"
    assert main(["refine", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "refine.csv").read_text().splitlines()
    assert rows[0].startswith("level,Nt,Nx,forward_error")


def test_sample_configs_parse_and_run(tmp_path):
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("volterra.cfg", "heat.cfg", "biload.cfg"):
        spec = parse_config((configs / name).read_text(encoding="utf-8"))
        assert spec.mesh["Nt"] >= 4
    out = tmp_path / "sample"
    assert (
        main(["cost", "--config", str(configs / "biload.cfg"), "--out", str(out)]) == 0
    )


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MINIMAL.replace("Nt = 8", "Nt = 3"))
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    # solver settings that would fake convergence, never converge or trip
    # the guard at once are config errors, reported before any sweep
    for bad in ("tol = inf", "tol = nan", "divergence_guard = -1", "relax = 1.5"):
        cfg = _write_cfg(tmp_path, MINIMAL + f"\n[solver]\n{bad}\n")
        out = tmp_path / "bad_solver"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "[solver]" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_model_parameter_is_a_config_error(tmp_path, capsys):
    heat = (Path(__file__).resolve().parents[1] / "configs" / "heat.cfg").read_text()
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=f"model 'heat' parameter 'K' must be finite, got {value}"):
            make_params("heat", K=float(value))
        cfg = _write_cfg(tmp_path, heat.replace("K = 1.0", f"K = {value}"))
        out = tmp_path / "bad_model"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "model 'heat' parameter 'K' must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_runs_are_byte_identical(tmp_path):
    cfg = _write_cfg(
        tmp_path, MINIMAL.replace("volterra_exp", "biload_demo") + "\n[controls]\nu = sin_t\n"
    )
    outs, codes = [], []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        codes.append(main(["grad-check", "--config", str(cfg), "--out", str(out), "--seed", "3"]))
        outs.append(out)
    assert codes[0] == codes[1]
    for name in ("phi.csv", "phi_bd.csv", "phi0.csv", "solve_report.csv", "grad_check.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
