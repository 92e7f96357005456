"""Command-line interface: flags, exit codes, file outputs, determinism."""

import copy
import functools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levygrowth
import levygrowth.cli as cli
from levygrowth.moments import STATISTICS, MCReport


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


def test_no_subcommand_loads_scipy(tmp_path):
    # every subcommand, both fit kinds included, runs on numpy alone
    full_angle = json.loads(_cov_config(tmp_path).read_text())
    full_angle["fit"] = {
        "kind": "fourier_scale",
        "data": str(tmp_path / "sim_full" / "history.csv"),
        "bounds": {"scale": [0.1, 4.0]},
    }
    (tmp_path / "full.json").write_text(json.dumps(full_angle))
    rect = {
        "preset": "ex4",
        "fit": {
            "kind": "rect_gaussian",
            "data": str(tmp_path / "sim_rect" / "history.csv"),
            "bounds": {"sigma2": [0.2, 3.0], "theta": [0.1, 1.5]},
        },
    }
    (tmp_path / "rect.json").write_text(json.dumps(rect))
    theta = 'model.ambit.theta={"kind": "constant", "value": 0.6283185307179586}'
    argvs = [
        ["simulate", "--preset", "ex4", "--replicates", "30", "--set", "grid.dphi_divisor=50",
         "--set", theta, "--out-dir", str(tmp_path / "sim_rect")],
        ["fit", "--config", str(tmp_path / "rect.json"), "--out-dir", str(tmp_path / "fit_rect")],
        ["simulate", "--config", str(tmp_path / "full.json"), "--replicates", "8",
         "--out-dir", str(tmp_path / "sim_full")],
        ["fit", "--config", str(tmp_path / "full.json"), "--out-dir", str(tmp_path / "fit_full")],
        ["moments", "--preset", "ex4", "--out-dir", str(tmp_path / "moments")],
        ["cov", "--config", str(tmp_path / "full.json"), "--out-dir", str(tmp_path / "cov")],
        ["mc-verify", "--config", str(_mc_config(tmp_path)), "--out-dir", str(tmp_path / "mc")],
    ]
    src = os.path.dirname(os.path.dirname(levygrowth.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "import levygrowth.cli as cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded[:5]\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_reading_data_and_mesh_plans_do_not_import_numpy_ma(tmp_path):
    # np.unique without an inverse or index imports numpy.ma (about 13 ms)
    src = os.path.dirname(os.path.dirname(levygrowth.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from levygrowth.growth import _Plan, example_preset\n"
        "from levygrowth.inference import ProfileDataset, empirical_moments, ingest_profiles\n"
        "p = example_preset('ex5')\n"
        "plan = _Plan(p.spec, p.grid, p.times)\n"
        "profiles = plan.profiles(3)[None]\n"
        "ProfileDataset(plan.times, p.grid.phi_mids, profiles).to_csv(sys.argv[1])\n"
        "empirical_moments(ingest_profiles(sys.argv[1]))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "history.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_library_logging_is_silent_by_default():
    # a fresh interpreter, where no handler but the package's is installed
    src = os.path.dirname(os.path.dirname(levygrowth.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import logging, levygrowth\n"
        "from levygrowth.growth import example_preset, simulate\n"
        "handlers = logging.getLogger('levygrowth').handlers\n"
        "assert any(isinstance(h, logging.NullHandler) for h in handlers)\n"
        "logging.getLogger('levygrowth.growth').warning('a library warning')\n"
        "p = example_preset('ex4')\n"
        "simulate(p.spec, p.grid, 7, p.times)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_log_level_debug_says_what_a_replicate_draws(tmp_path, capsys):
    # ex5's 29 window rows fall into one segment per window
    import logging

    logger = logging.getLogger("levygrowth")
    handlers, level = list(logger.handlers), logger.level
    argv = ["simulate", "--preset", "ex5", "--out-dir", str(tmp_path)]
    assert run(argv + ["--log-level", "debug"]) == 0
    err = capsys.readouterr().err
    assert "_MeshRows sampler: a replicate draws 29 rows, 3 segments" in err
    assert logger.handlers == handlers and logger.level == level
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_log_level_debug_says_what_an_ex3_replicate_draws(tmp_path, capsys):
    # ex3's windows touch every one of its 500 rows: 63 point blocks, each
    # drawing its row totals, then its points' angles and times
    argv = ["simulate", "--preset", "ex3", "--out-dir", str(tmp_path), "--log-level", "debug"]
    assert run(argv) == 0
    err = capsys.readouterr().err
    assert "_PointSums sampler: a replicate draws 63 point blocks, 500 row totals" in err


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


def test_simulate_writes_the_replicate_array_and_replicate_0_outline(tmp_path):
    from levygrowth.config import parse_config
    from levygrowth.growth import simulate
    from levygrowth.inference import ingest_profiles
    from levygrowth.rngtools import mix_seed

    out = tmp_path / "reps"
    sets = ["--set", "grid.dphi_divisor=40", "--set", "times=[20, 45]"]
    assert run(["simulate", "--preset", "ex4", "--seed", "5", "--replicates", "3"]
               + sets + ["--out-dir", str(out)]) == 0
    cfg = parse_config({"preset": "ex4", "grid": {"dphi_divisor": 40}, "times": [20, 45]})
    first = simulate(cfg.spec, cfg.grid, mix_seed(5, 0), cfg.times)
    data = ingest_profiles(out / "history.csv")
    assert data.n_reps == 3
    assert np.array_equal(data.profiles[0], first.profiles)
    first.to_polyline_csv(tmp_path / "outline.csv")
    assert (out / "outline.csv").read_bytes() == (tmp_path / "outline.csv").read_bytes()


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
        # gamma = 0 divided by zero in the drift's value
        ('model.drift={"kind":"gompertz","kappa0":1.0,"eta":1.0,"gamma":0.0}', "model.drift"),
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


def test_cov_with_a_negative_lag_exits_3(tmp_path, capsys):
    # the lag T falls from 1 at t = 0 to -1 at t = 10
    T = '{"kind":"table","ts":[0.0,10.0],"values":[1.0,-1.0]}'
    argv = [
        "cov", "--preset", "ex4", "--out-dir", str(tmp_path / "o"),
        "--set", 'model.weight={"kind":"cosine","coeffs":[0.0,0.3,0.2]}',
        "--set", f'model.ambit={{"kind":"full_angle","T":{T}}}',
    ]  # fmt: skip
    assert run(argv) == 3
    assert "AssumptionViolation: time lags must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "moments"])
def test_a_negative_lag_at_a_requested_time_exits_3(tmp_path, capsys, command):
    # the lag T falls from 1 at t = 0 to -30 at t = 100, below 0 after t = 3.2
    T = '{"kind":"table","ts":[0.0,100.0],"values":[1.0,-30.0]}'
    argv = [
        command, "--preset", "ex4", "--out-dir", str(tmp_path / "o"),
        "--set", f'model.ambit={{"kind":"rectangular","theta":0.05,"T":{T}}}',
    ]  # fmt: skip
    assert run(argv) == 3
    assert "AssumptionViolation: time lags must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "moments"])
def test_grid_short_of_the_times_exits_3(tmp_path, capsys, command):
    args = [command, "--preset", "ex4", "--set", "grid.t_max=40", "--out-dir", str(tmp_path)]
    assert run(args) == 3
    assert "RegionOutsideGrid" in capsys.readouterr().err


def _shrinking_window_document(kind, basis):
    """A rectangular ambit whose lag T jumps from 1 to 5 over [10, 11], so
    the window start u - T(u) falls from 9 to 6 there."""
    T = {"kind": "table", "ts": [0.0, 10.0, 11.0], "values": [0.0, 1.0, 5.0]}
    return {
        "model": {
            "kind": kind,
            "drift": {"kind": "constant", "value": 0.0},
            "weight": {"kind": "constant", "value": 1.0},
            "basis": basis,
            "control": {"kind": "constant", "c": 1.0},
            "ambit": {"kind": "rectangular", "theta": {"kind": "constant", "value": 0.3}, "T": T},
            **({"r0": 0.0} if kind == "rate_linear" else {}),
        },
        "grid": {"dphi_divisor": 200, "dt": 0.05, "t_min": 0.0, "t_max": 11.0},
        "times": [11.0],
    }


@pytest.mark.parametrize("command", ["simulate", "moments"])
@pytest.mark.parametrize(
    "basis", [{"kind": "gaussian", "a": 1.0, "b": 1.0}, {"kind": "poisson"}], ids=["gaussian", "poisson"]
)
def test_rate_model_with_a_decreasing_window_start_exits_3(tmp_path, capsys, command, basis):
    # the time-union length read 4.0 and 3.0 at s = 7 and 8 (apex brute
    # force: 1.11 and 1.56), so moments printed a mean of 8.655 against the
    # continuum's 2 theta a int_0^11 T = 4.8
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_shrinking_window_document("rate_linear", basis)))
    assert run([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "AssumptionViolation" in err and "window start" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "kind,T",
    [
        ("direct", None),
        # u - T(u) = -u falls, but only below the control's support s >= 0,
        # where the time-union length still holds
        ("rate_linear", {"kind": "proportional", "factor": 2.0}),
    ],
)
def test_models_the_window_start_check_lets_through_run(tmp_path, kind, T):
    path = tmp_path / "cfg.json"
    doc = _shrinking_window_document(kind, {"kind": "gaussian", "a": 1.0, "b": 1.0})
    if T is not None:
        doc["model"]["ambit"]["T"] = T
    path.write_text(json.dumps(doc))
    assert run(["moments", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0


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


def test_moments_of_a_narrow_gaussian_cone_are_the_continuum_law(tmp_path):
    # theta = 0.001 is a third of a cell: the cone law's variance is
    # 2 theta T(t) = 0.4 theta t, where the mesh gave a whole cell, pi times
    # more; 4000 replicates at one angle agree with it
    from levygrowth.growth import _Plan, example_preset
    from levygrowth.rngtools import mix_seed

    out = tmp_path / "out"
    argv = ["moments", "--preset", "ex4", "--set", "model.ambit.theta=0.001", "--out-dir", str(out)]
    assert run(argv) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.allclose(table[:, 2], [0.008, 0.018, 0.032], rtol=1e-12, atol=0.0)

    p = example_preset("ex4", theta=0.001)
    plan, n = _Plan(p.spec, p.grid, p.times), 4000
    x = np.array([plan.profiles(mix_seed(17, r))[:, 0] for r in range(n)])
    mean, var = table[:, 1], table[:, 2]
    z_mean = (x.mean(axis=0) - mean) / np.sqrt(var / n)
    z_var = (x.var(axis=0, ddof=1) - var) / (var * math.sqrt(2.0 / (n - 1)))
    assert np.all(np.abs(z_mean) <= 3.0), z_mean
    assert np.all(np.abs(z_var) <= 3.0), z_var


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


_MC_MEAN = {"statistic": "mean", "points": [[5.0, 0.0]]}
_MC_EXP = {"statistic": "mixed_exponential", "points": [[5.0, 0.0]], "lambdas": [0.3]}


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
        *(
            (
                {"checks": [_MC_MEAN, dict(_MC_MEAN, n_replicates=n)]},
                "mc.checks[1].n_replicates",
            )
            for n in ("abc", [3], 2.7, 1, True)
        ),
        ({"statistic": "mean", "points": [[5.0, 0.0]], "n_replicates": "500"}, "mc.n_replicates"),
        *(
            ({"checks": [_MC_EXP, dict(_MC_EXP, lambdas=lams)]}, "mc.checks[1].lambdas")
            for lams in (0.3, ["x"], [[0.3]], [float("nan")], "0.3", [True])
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


_RECT_FIT = {"kind": "rect_gaussian", "data": "missing.csv", "bounds": {"sigma2": [0.2, 3.0], "theta": [0.1, 1.5]}}
_SCALE_FIT = {"kind": "fourier_scale", "data": "missing.csv", "bounds": {"scale": [0.1, 4.0]}}


@pytest.mark.parametrize(
    "command, block, dotted",
    [
        ("cov", {"time_pairs": [[8, 7, 1]]}, "cov.time_pairs"),
        ("cov", {"time_pairs": [[8, "x"]]}, "cov.time_pairs"),
        ("cov", {"time_pairs": [[8, 7], [6]]}, "cov.time_pairs"),
        ("cov", {"dphis": ["x"]}, "cov.dphis"),
        ("cov", {"dphis": [[0.0, 1.0]]}, "cov.dphis"),
        ("cov", {"k_max": "abc"}, "cov.k_max"),
        ("cov", {"k_max": -1}, "cov.k_max"),
        ("fit", dict(_RECT_FIT, bounds={"sigma2": [0.2], "theta": [0.1, 1.5]}), "fit.bounds.sigma2"),
        ("fit", dict(_RECT_FIT, bounds={"sigma2": ["a", 3.0], "theta": [0.1, 1.5]}), "fit.bounds.sigma2"),
        ("fit", dict(_RECT_FIT, bounds={"sigma2": [0.2, 3.0]}), "fit.bounds"),
        ("fit", dict(_RECT_FIT, bounds=[0.2, 3.0]), "fit.bounds"),
        ("fit", dict(_RECT_FIT, n_lags="x"), "fit.n_lags"),
        ("fit", dict(_RECT_FIT, kind="spline"), "fit.kind"),
        ("fit", dict(_SCALE_FIT, bounds={"scale": [0.1, 4.0], "theta": [0.1, 1.0]}), "fit.bounds"),
        ("fit", dict(_SCALE_FIT, orders=["a"]), "fit.orders"),
        ("fit", dict(_SCALE_FIT, orders=[0, 1]), "fit.orders"),
        ("fit", dict(_SCALE_FIT, orders=2), "fit.orders"),
        # JSON booleans are not numbers, at any depth
        ("cov", {"time_pairs": [[8, True]]}, "cov.time_pairs"),
        ("cov", {"dphis": [True, False]}, "cov.dphis"),
        ("cov", {"dphis": [0.0, True]}, "cov.dphis"),
        ("fit", dict(_RECT_FIT, bounds={"sigma2": [True, 3.0], "theta": [0.1, 1.5]}), "fit.bounds.sigma2"),
        ("fit", dict(_SCALE_FIT, bounds={"scale": [0.1, True]}), "fit.bounds.scale"),
    ],
)
def test_malformed_cov_and_fit_blocks_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, block, dotted
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the block was validated")

    monkeypatch.setattr(cli, "ingest_profiles", no_work)
    monkeypatch.setattr(cli.CircleCovModel, "table", no_work)
    cfg = json.loads(_cov_config(tmp_path).read_text())
    if block.get("kind") == "rect_gaussian":
        cfg = {"preset": "ex4"}
    cfg[command] = block
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {dotted}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, dotted",
    [
        (["simulate", "--preset", "ex4", "--replicates", "0"], "replicates"),
        (["simulate", "--preset", "ex4", "--replicates", "-2"], "replicates"),
        (["moments", "--preset", "ex4", "--set", 'times=["x"]'], "times"),
        (["moments", "--preset", "ex4", "--set", "times=[[1]]"], "times"),
        (
            ["moments", "--preset", "ex4", "--set", "model.drift.ts=[[1], [2], [3]]"],
            "model.drift.ts",
        ),
        (["moments", "--preset", "ex4", "--set", "grid.dt=true"], "grid.dt"),
        (["moments", "--preset", "ex4", "--set", "seed=true"], "seed"),
        (["moments", "--preset", "ex4", "--set", "model.basis.b=true"], "model.basis.b"),
        (["moments", "--preset", "ex4", "--set", "model.ambit.theta=NaN"], "model.ambit.theta"),
        (["moments", "--preset", "ex4", "--set", "grid.dphi_divisor=0"], "grid.dphi_divisor"),
        (["moments", "--preset", "ex4", "--set", "grid.dt=1e-320"], "grid"),
        (["moments", "--preset", "ex4", "--set", "cov.kmax=3"], "cov"),
        (["moments", "--preset", "ex4", "--set", "fit.n_lag=3"], "fit"),
        (["moments", "--preset", "ex4", "--set", 'mc.statistc="mean"'], "mc"),
        (["cov", "--config", "<cov>", "--set", "model.weight.coeffs=[]"], "model.weight.coeffs"),
        # a key only another kind of the block reads
        (["moments", "--preset", "tumour", "--set", "model.r0=1.0"], "model.r0"),
        # a data path that names no file
        (["fit", "--preset", "ex4", "--set", f"fit={json.dumps(dict(_RECT_FIT, data=''))}"], "fit.data"),
        (["fit", "--preset", "ex4", "--set", f"fit={json.dumps(_RECT_FIT)}"], "fit.data"),
    ],
)
def test_a_malformed_document_exits_2_before_any_work(tmp_path, capsys, argv, dotted):
    argv = [str(_cov_config(tmp_path)) if arg == "<cov>" else arg for arg in argv]
    out = tmp_path / "o"
    assert run([*argv, "--out-dir", str(out)]) == 2
    assert f"config error: {dotted}: " in capsys.readouterr().err
    assert not out.exists()


@functools.cache
def _documents():
    """The preset documents and this module's cov, mc and fit documents."""
    from levygrowth.config import PRESET_DOCUMENTS, preset_document

    docs = [preset_document(name) for name in PRESET_DOCUMENTS]
    with tempfile.TemporaryDirectory() as tmp:
        cov = json.loads(_cov_config(pathlib.Path(tmp)).read_text())
        mc = json.loads(_mc_config(pathlib.Path(tmp)).read_text())
    docs += [cov, mc, dict(mc, mc={"checks": [_MC_MEAN, _MC_EXP]})]
    docs += [{"preset": "ex4", "fit": _RECT_FIT}, dict(cov, fit=dict(_SCALE_FIT, orders=[1]))]
    return docs


def _sites(node, keys=()):
    """("add", keys) for every mapping and ("replace", keys) for every scalar
    and every list entry in ``node``, ``keys`` leading there from the root."""
    if isinstance(node, dict):
        yield "add", keys
        for key, value in node.items():
            if not isinstance(value, (dict, list)):
                yield "replace", (*keys, key)
            yield from _sites(value, (*keys, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield "replace", (*keys, i)
            yield from _sites(value, (*keys, i))


def _dotted(keys):
    path = ""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
    return path


# A string naming another statistic or fit kind changes which fields the
# block needs, and so moves the error to those fields: such names are not
# drawn.
_KIND_NAMES = {*STATISTICS, "rect_gaussian", "fourier_scale"}
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 1.5])
    | st.text(max_size=6).filter(lambda s: s not in _KIND_NAMES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_parse_config_names_the_changed_field_or_accepts(data):
    """Replace one scalar or list entry of a valid document by any JSON value,
    or add an unknown key to one of its mappings: the document parses, or
    fails with a ConfigError at the changed field or at a block holding it."""
    from levygrowth.config import parse_config
    from levygrowth.errors import ConfigError

    doc = copy.deepcopy(data.draw(st.sampled_from(_documents())))
    action, keys = data.draw(st.sampled_from(list(_sites(doc))))
    value = data.draw(_JSON_VALUES)
    node = doc
    for key in keys[:-1] if action == "replace" else keys:
        node = node[key]
    if action == "replace":
        node[keys[-1]] = value
    else:
        node["x_" + data.draw(st.text(max_size=4))] = value
    changed = _dotted(keys)
    try:
        parse_config(doc)
    except ConfigError as exc:
        if action == "add":
            assert exc.path == changed, (changed, str(exc))
        else:
            assert changed == exc.path or changed.startswith((exc.path + ".", exc.path + "[")), (
                changed,
                str(exc),
            )


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
    # a nonzero spot mean, not centred: the terms' mean rides on the draw
    "ex4-mean": (
        "ex4",
        {
            "model": {
                "basis": {"a": 0.5},
                "ambit": {"theta": {"kind": "constant", "value": math.pi / 5}},
            },
            "grid": {"dphi_divisor": 100},
        },
    ),
    "tumour": ("tumour", {"grid": {"dphi_divisor": 100}}),
    "tumour-poisson": (
        "tumour",
        {"model": {"basis": {"kind": "poisson"}}, "grid": {"dphi_divisor": 100}},
    ),
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
