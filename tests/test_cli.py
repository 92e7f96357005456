"""Command-line interface: flags, exit codes, file outputs, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import levygrowth
import levygrowth.cli as cli
from levygrowth.moments import MCReport


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# help and flag surface
# ---------------------------------------------------------------------------

DOCUMENTED_FLAGS = [
    "--preset",
    "--config",
    "--set",
    "--seed",
    "--replicates",
    "--out-dir",
    "--threads",
    "--fine",
]


def test_top_level_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("simulate", "cov", "moments", "mc-verify", "fit"):
        assert name in out


@pytest.mark.parametrize("command", ["simulate", "cov", "moments", "mc-verify", "fit"])
def test_subcommand_help_documents_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in DOCUMENTED_FLAGS:
        assert flag in out, f"{flag} missing from {command} --help"


def test_cli_import_loads_no_scipy():
    # scipy is imported by the fitting code that needs it, not at start-up
    src = os.path.dirname(os.path.dirname(levygrowth.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import levygrowth.cli, sys; "
        "assert not any(m.startswith('scipy') for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_preset_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["simulate", "--preset", "ex4", "--seed", "7"]
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    hist1 = (out1 / "history.csv").read_bytes()
    hist2 = (out2 / "history.csv").read_bytes()
    assert hist1 == hist2
    assert (out1 / "outline.csv").read_bytes() == (out2 / "outline.csv").read_bytes()


def test_simulate_ex3_time_points(tmp_path):
    out = tmp_path / "ex3"
    assert run(["simulate", "--preset", "ex3", "--seed", "3", "--out-dir", str(out)]) == 0
    text = (out / "history.csv").read_text().splitlines()
    assert text[0].startswith("# levygrowth v")
    times = {line.split(",")[0] for line in text[2:]}
    assert times == {"75.0", "100.0", "125.0"}


def test_simulate_replicates_written_with_index(tmp_path):
    out = tmp_path / "reps"
    code = run(
        [
            "simulate",
            "--preset",
            "ex4",
            "--seed",
            "5",
            "--replicates",
            "3",
            "--set",
            "grid.dphi_divisor=100",
            "--set",
            "times=[20]",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    header = (out / "history.csv").read_text().splitlines()[1]
    assert header == "t,phi,r,replicate"


# ---------------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------------


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["simulate", "--config", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "ex4", "bogus_key": 1}))
    code = run(["simulate", "--config", str(cfg)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_unknown_preset_exits_2(capsys):
    assert run(["simulate", "--preset", "nope"]) == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize(
    "assignment, path",
    [
        ('model.kind="foo"', "model"),
        ('model.ambit.T={"kind":"table","ts":[2,1],"values":[1,2]}', "model.ambit.T"),
    ],
)
def test_invalid_model_value_exits_2(tmp_path, capsys, assignment, path):
    argv = ["moments", "--preset", "ex4", "--set", assignment, "--out-dir", str(tmp_path)]
    assert run(argv) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


def test_model_error_exits_3(tmp_path, capsys):
    cfg = {
        "model": {
            "kind": "exponential_tumour",
            "tumour": {
                "rows": [[21.0, 21.0, 19.0, 0.04, -0.033, 0.19]],
                "mu": [[21.0, 5.0]],
            },
            "basis": {"kind": "gamma", "beta": 1.0, "alpha": 0.01},
            "control": {"kind": "constant", "c": 1.0},
        },
        "grid": {"dphi_divisor": 100, "dt": 1.0, "t_min": 0.0, "t_max": 21.0},
        "times": [21.0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "Kumulant" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "moments"])
def test_grid_short_of_the_times_exits_3(tmp_path, capsys, command):
    args = [command, "--preset", "ex4", "--set", "grid.t_max=40", "--out-dir", str(tmp_path)]
    assert run(args) == 3
    assert "RegionOutsideGrid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cov / moments
# ---------------------------------------------------------------------------


def _cov_config(tmp_path, c=0.5, T=2.0):
    cfg = {
        "model": {
            "kind": "direct",
            "weight": {"kind": "cosine", "coeffs": [0.0, c]},
            "basis": {"kind": "gaussian", "a": 0.0, "b": 1.0},
            "control": {"kind": "constant", "c": 1.0},
            "ambit": {"kind": "full_angle", "T": T},
        },
        "grid": {"dphi_divisor": 64, "dt": 0.5, "t_min": 0.0, "t_max": 8.0},
        "times": [8.0],
        "cov": {"time_pairs": [[8.0, 8.0]], "dphis": [0.0, 0.5, 1.0, 1.5707963267948966]},
    }
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cov_single_harmonic_table(tmp_path):
    path = _cov_config(tmp_path, c=0.5, T=2.0)
    out = tmp_path / "out"
    assert run(["cov", "--config", str(path), "--out-dir", str(out)]) == 0
    lines = (out / "cov.csv").read_text().splitlines()
    assert lines[0].startswith("# levygrowth v")
    assert lines[1] == "t1,t2,dphi,cov"
    scale = math.pi * 0.25 * 2.0
    for line in lines[2:]:
        _, _, d, cov = (float(v) for v in line.split(","))
        assert cov == pytest.approx(scale * math.cos(d), abs=1e-9)


def test_moments_command_table(tmp_path):
    cfg = {
        "preset": "ex4",
        "grid": {"dphi_divisor": 100, "dt": 1.0, "t_min": 0.0, "t_max": 80.0},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["moments", "--config", str(path), "--out-dir", str(out)]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[1] == "t,mean,variance"
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[2:]}
    assert rows[20.0] == pytest.approx(16.0)
    assert rows[45.0] == pytest.approx(24.0)
    assert rows[80.0] == pytest.approx(32.0)


# ---------------------------------------------------------------------------
# mc-verify
# ---------------------------------------------------------------------------


def _mc_config(tmp_path):
    cfg = {
        "model": {
            "kind": "direct",
            "weight": {"kind": "constant", "value": 1.0},
            "basis": {"kind": "gaussian", "a": 0.0, "b": 1.0},
            "control": {"kind": "constant", "c": 1.0},
            "ambit": {"kind": "rectangular", "theta": 0.6, "T": 2.0},
        },
        "grid": {"dphi_divisor": 50, "dt": 0.25, "t_min": 0.0, "t_max": 6.0},
        "times": [5.0],
        "seed": 5,
        "mc": {
            "statistic": "cov",
            "points": [[5.0, 0.0], [5.5, 0.3]],
            "n_replicates": 2000,
        },
    }
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    return path


def test_mc_verify_passes_and_writes_report(tmp_path):
    out = tmp_path / "out"
    code = run(["mc-verify", "--config", str(_mc_config(tmp_path)), "--out-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "mc_report.json").read_text())
    assert payload["reports"][0]["statistic"] == "cov"
    assert abs(payload["reports"][0]["z"]) <= 3.0


def test_mc_verify_flags_exit_4(tmp_path, monkeypatch):
    def fake_verify(*args, **kwargs):
        return MCReport("cov", 1.0, 2.0, 0.1, 10.0, 100, 0)

    monkeypatch.setattr(cli, "mc_verify", fake_verify)
    out = tmp_path / "out"
    code = run(["mc-verify", "--config", str(_mc_config(tmp_path)), "--out-dir", str(out)])
    assert code == 4


def _mc_check_config(tmp_path, mc):
    cfg = json.loads(_mc_config(tmp_path).read_text())
    cfg["mc"] = mc
    path = tmp_path / "mc_check.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "mc, dotted",
    [
        ({"statistic": "kurtosis", "points": [[5.0, 0.0]]}, "mc.statistic"),
        ({"statistic": "cov", "points": [[5.0, 0.0]]}, "mc.points"),
        ({"statistic": "mean", "points": [[5.0]]}, "mc.points"),
        ({"checks": ["mean"]}, "mc.checks[0]"),
        ({"statistic": "var", "points": [[5.0, 0.0], [5.5, 0.3]]}, "mc.points"),
        ({"statistic": "mixed_exponential", "points": [[5.0, 0.0]]}, "mc.lambdas"),
        (
            {"statistic": "mixed_exponential", "points": [[5.0, 0.0]], "lambdas": [1.0, 1.0]},
            "mc.lambdas",
        ),
        (
            {
                "checks": [
                    {"statistic": "mean", "points": [[5.0, 0.0]]},
                    {"statistic": "relative_second_moment", "points": [[5.0, 0.0]]},
                ]
            },
            "mc.checks[1].points",
        ),
    ],
)
def test_mc_verify_rejects_a_bad_check_before_sampling(
    tmp_path, capsys, monkeypatch, mc, dotted
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a check ran before every check was validated")

    monkeypatch.setattr(cli, "mc_verify", no_sampling)
    path = _mc_check_config(tmp_path, mc)
    assert run(["mc-verify", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {dotted}: " in capsys.readouterr().err


@pytest.mark.parametrize("t", [500.0, 90.0])
def test_mc_verify_point_past_the_grid_exits_3(tmp_path, capsys, t):
    path = tmp_path / "mc.json"
    mc = {"statistic": "mean", "points": [[t, 0.0]]}
    path.write_text(json.dumps({"preset": "ex4", "mc": mc}))
    assert run(["mc-verify", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    assert "RegionOutsideGrid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_round_trip_config(tmp_path):
    sim_out = tmp_path / "sim"
    code = run(
        [
            "simulate",
            "--preset",
            "ex4",
            "--seed",
            "21",
            "--replicates",
            "150",
            "--set",
            "grid.dphi_divisor=100",
            "--set",
            'model.ambit.theta={"kind": "constant", "value": 0.6283185307179586}',
            "--out-dir",
            str(sim_out),
        ]
    )
    assert code == 0
    cfg = {
        "preset": "ex4",
        "fit": {
            "kind": "rect_gaussian",
            "data": str(sim_out / "history.csv"),
            "bounds": {"sigma2": [0.2, 3.0], "theta": [0.1, 1.5]},
            "n_lags": 16,
        },
    }
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["fit", "--config", str(path), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["converged"] is True
    assert abs(payload["params"]["theta"] - 0.628) < 0.25


def test_preset_documents_match_programmatic_presets():
    from levygrowth.config import parse_config, preset_document
    from levygrowth.growth import example_preset

    for name in ("ex3", "ex4", "ex5", "ex6", "tumour"):
        cfg = parse_config(preset_document(name))
        preset = example_preset(name)
        assert cfg.spec.describe() == preset.spec.describe(), name
        assert cfg.grid.describe() == preset.grid.describe(), name
        assert cfg.times == preset.times, name


def test_moments_command_centered_preset(tmp_path):
    # the recentered Gamma preset must report the same mean as the Gaussian one
    cfg = {
        "preset": "ex5",
        "grid": {"dphi_divisor": 100, "dt": 1.0, "t_min": 0.0, "t_max": 80.0},
    }
    path = tmp_path / "m5.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["moments", "--config", str(path), "--out-dir", str(out)]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[2:]}
    assert rows[20.0] == pytest.approx(16.0)
    assert rows[80.0] == pytest.approx(32.0)


# ---------------------------------------------------------------------------
# moments: the simulator's own terms
# ---------------------------------------------------------------------------


def _document(preset, **override):
    from levygrowth.config import _deep_merge, preset_document

    return _deep_merge(preset_document(preset), override)


def _moments_table(tmp_path, doc):
    path = tmp_path / "moments-config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "moments-out"
    assert run(["moments", "--config", str(path), "--out-dir", str(out)]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[1] == "t,mean,variance"
    return np.array([[float(v) for v in line.split(",")] for line in lines[2:]])


def _ex3_closed_form(t, a=10.0, theta=0.5, lag=1.0):
    # R_t = sum over points of L(s) on the 1/s-wedge, g(s) = a s, c = theta / pi
    c = theta / math.pi
    mean = 2 * a * theta * ((t - lag - c) * lag + lag**2 / 2) + math.pi * a * lag * c * c
    var = 2 * a * theta * ((t - lag - c) * lag**2 + lag**3 / 3) + math.pi * a * lag**2 * c * c
    return mean, var


def test_moments_ex3_matches_closed_form(tmp_path):
    table = _moments_table(tmp_path, _document("ex3"))
    assert list(table[:, 0]) == [75.0, 100.0, 125.0]
    for t, mean, var in table:
        want_mean, want_var = _ex3_closed_form(t)
        assert mean == pytest.approx(want_mean, rel=1e-10)
        assert var == pytest.approx(want_var, rel=1e-10)


def _z_scores(x, mean, var):
    """z of the sample mean and the sample variance of ``x`` against
    ``mean`` and ``var``; the variance's standard error is that of the
    mean of the squared deviations."""
    n = x.size
    dev2 = (x - x.mean()) ** 2
    z_mean = (x.mean() - mean) / (x.std(ddof=1) / math.sqrt(n))
    z_var = (x.var(ddof=1) - var) / (dev2.std(ddof=1) / math.sqrt(n))
    return z_mean, z_var


AGREEMENT_MODELS = {
    "ex3": ("ex3", {"grid": {"dphi_divisor": 100, "t_max": 12.0}, "times": [6.0, 12.0]}),
    "ex4": ("ex4", {"grid": {"dphi_divisor": 100}}),
    "ex5": ("ex5", {"grid": {"dphi_divisor": 100}}),
    "ex6": ("ex6", {"grid": {"dphi_divisor": 100}}),
    "tumour": ("tumour", {"grid": {"dphi_divisor": 100}}),
    "ex4-rate_linear": (
        "ex4",
        {
            "model": {
                "kind": "rate_linear",
                "ambit": {"theta": {"kind": "constant", "value": math.pi / 5}},
            },
            "grid": {"dphi_divisor": 200, "t_max": 45.0},
            "times": [20.0, 45.0],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_MODELS))
def test_moments_agree_with_simulation(tmp_path, name):
    from levygrowth.config import parse_config
    from levygrowth.growth import simulate_replicates

    preset, override = AGREEMENT_MODELS[name]
    doc = _document(preset, **override)
    table = _moments_table(tmp_path, doc)
    cfg = parse_config(doc)
    radii = simulate_replicates(cfg.spec, cfg.grid, 1, cfg.times, 400)[:, :, 0]
    if cfg.spec.kind == "exponential_tumour":
        radii = np.log(radii)
    elif cfg.spec.kind == "direct_scaled":
        radii = radii / cfg.spec.multiplier(cfg.grid.phi_mids[:1])
    assert list(table[:, 0]) == sorted(cfg.times)
    for i, (t, mean, var) in enumerate(table):
        z_mean, z_var = _z_scores(radii[:, i], mean, var)
        assert abs(z_mean) <= 4 and abs(z_var) <= 4, (name, t, z_mean, z_var)


def test_centring_subtracts_the_weighted_mean(tmp_path):
    from levygrowth.config import parse_config
    from levygrowth.growth import simulate_replicates

    doc = _document(
        "ex5",
        model={"weight": {"kind": "constant", "value": 2.0}},
        grid={"dphi_divisor": 100},
    )
    table = _moments_table(tmp_path, doc)
    drift = {20.0: 16.0, 45.0: 24.0, 80.0: 32.0}
    for t, mean, _ in table:
        assert abs(mean - drift[t]) <= 1e-9
    cfg = parse_config(doc)
    radii = simulate_replicates(cfg.spec, cfg.grid, 2, cfg.times, 400)[:, :, 0]
    for i, (t, mean, var) in enumerate(table):
        z_mean, _ = _z_scores(radii[:, i], mean, var)
        assert abs(z_mean) <= 4, (t, z_mean)


def test_fine_replicate_history_hash_is_that_of_the_simulated_grid(tmp_path):
    out = tmp_path / "fine"
    args = ["simulate", "--preset", "ex4", "--seed", "3", "--replicates", "2", "--fine"]
    args += ["--set", "grid.dphi_divisor=50", "--set", "times=[20]", "--out-dir", str(out)]
    assert run(args) == 0
    history = (out / "history.csv").read_text().splitlines()[0]
    outline = (out / "outline.csv").read_text().splitlines()[0]
    config = [part for part in history.split() if part.startswith("config=")]
    assert config and config == [p for p in outline.split() if p.startswith("config=")]
