"""cli-roundtrip: one operation is one ``levygrowth`` subprocess.

A round runs simulate (ex4, theta = pi/5, 200 replicates on 200 angles,
--threads 2), fit on the CSV it wrote, moments for ex4 and for ex3, cov and
mc-verify --threads 2.  Interpreter start-up, config parsing, CSV writing and
CSV reading do the work here, behind the growth layer mesh-ensemble times.

``moments --preset ex3`` fails every run: the program reports mean 0 and
variance 0 where the model's mean radius is about 10 t - 5.8.  It is kept and
counted as a failed operation.

mc-verify runs a fixed configuration and Monte Carlo seed (those of the
repository's own CLI test).  Its verdict is a |z| > 3 flag, which any
seed-driven input would trip by chance in about one check in 370.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import checks
from common import round_rng, round_seed

LAUNCHER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "cli_launcher.py")
TIMEOUT_S = 120

SIM_REPLICATES = 200
SIM_ANGLES = 200
SIM_THETA = math.pi / 5
SIM_TIMES = (20.0, 45.0, 80.0)
FIT_REL_TOL = 0.15

MC_CONFIG = {
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
        "checks": [
            {"statistic": "cov", "points": [[5.0, 0.0], [5.5, 0.3]], "n_replicates": 500},
            {"statistic": "var", "points": [[5.0, 0.0]], "n_replicates": 500},
        ]
    },
}


def ex3_moments():
    """Mean and variance of the ex3 radius, R_t = int fbar dN, in closed form.

    Poisson basis g(s) = a s, wedge half-width min(pi, theta/s), lag T; the
    time-union weight of slice s is L(s) = min(s + T, t) - s.  The wedge
    covers the full circle below c = theta/pi.
    """
    a, theta, lag = 10.0, 0.5, 1.0
    c = theta / math.pi
    mean, var = {}, {}
    for t in (75.0, 100.0, 125.0):
        mean[t] = 2 * a * theta * ((t - lag - c) * lag + lag**2 / 2) + math.pi * a * lag * c * c
        var[t] = 2 * a * theta * ((t - lag - c) * lag**2 + lag**3 / 3) + math.pi * a * lag**2 * c * c
    return mean, var


class Workload:
    known_faults = frozenset({"moments-ex3"})

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.trace_records = []
        self.tracing = False
        os.makedirs(workdir, exist_ok=True)
        self.mc_config = self._write("mc.json", MC_CONFIG)
        code, _ = self._cli(["--version"], "warm-up")  # warm-up
        if code != 0:
            raise RuntimeError("levygrowth --version failed")
        theta4, dphi4 = math.pi / 100, 2 * math.pi / 1000
        self.ex4_mean = {20.0: 16.0, 45.0: 24.0, 80.0: 32.0}
        self.ex4_var = {t: 2 * theta4 * 0.2 * t for t in self.ex4_mean}
        self.ex4_var_tol = {t: dphi4 * 0.2 * t for t in self.ex4_mean}
        self.ex3_mean, self.ex3_var = ex3_moments()

    def _write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _cli(self, args, tag):
        env = dict(os.environ, LEVYBENCH_SPAWN=repr(time.time()))
        if self.tracing:
            env["LEVYBENCH_TRACE"] = os.path.join(self.workdir, f"trace-{tag}.json")
        proc = subprocess.run(
            [sys.executable, LAUNCHER, *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=TIMEOUT_S,
        )
        if self.tracing and os.path.exists(env["LEVYBENCH_TRACE"]):
            with open(env["LEVYBENCH_TRACE"]) as fh:
                self.trace_records.append(json.load(fh))
        return proc.returncode, proc.stderr.decode(errors="replace")

    def _dir(self, i, name):
        return os.path.join(self.workdir, f"round{i}", name)

    def _inputs(self, i):
        rng = round_rng(self.seed, i)
        coeffs = [round(float(c), 6) for c in rng.uniform(0.05, 0.5, size=int(rng.integers(3, 7)))]
        lag = round(float(rng.uniform(1.0, 3.0)), 6)
        t = 8.0
        pairs = [[t, t], [t - round(float(rng.uniform(0.0, lag)), 6), t]]
        return {
            "sim_seed": round_seed(self.seed, i, 0) % 2**31,
            "fit_seed": round_seed(self.seed, i, 1) % 2**31,
            "cov": {"coeffs": coeffs, "lag": lag, "pairs": pairs},
        }

    def ops(self, i):
        inp = self._inputs(i)
        d = {name: self._dir(i, name) for name in ("simulate", "fit", "moments-ex4", "moments-ex3", "cov", "mc-verify")}
        os.makedirs(os.path.join(self.workdir, f"round{i}"), exist_ok=True)
        history = os.path.join(d["simulate"], "history.csv")
        fit_cfg = self._write(
            f"round{i}/fit.json",
            {
                "preset": "ex4",
                "fit": {
                    "kind": "rect_gaussian",
                    "data": history,
                    "bounds": {"sigma2": [0.2, 3.0], "theta": [0.05, 1.5]},
                    "n_lags": 16,
                },
            },
        )
        cov = inp["cov"]
        cov_cfg = self._write(
            f"round{i}/cov.json",
            {
                "model": {
                    "kind": "direct",
                    "weight": {"kind": "cosine", "coeffs": cov["coeffs"]},
                    "basis": {"kind": "gaussian", "a": 0.0, "b": 1.0},
                    "control": {"kind": "constant", "c": 1.0},
                    "ambit": {"kind": "full_angle", "T": cov["lag"]},
                },
                "grid": {"dphi_divisor": 64, "dt": 0.5, "t_min": 0.0, "t_max": 8.0},
                "times": [8.0],
                "cov": {"time_pairs": cov["pairs"], "dphis": list(np.linspace(0.0, math.pi, 7))},
            },
        )
        theta_set = 'model.ambit.theta={"kind": "constant", "value": %r}' % SIM_THETA
        argv = {
            "simulate": [
                "simulate", "--preset", "ex4", "--seed", str(inp["sim_seed"]),
                "--replicates", str(SIM_REPLICATES), "--threads", "2",
                "--set", f"grid.dphi_divisor={SIM_ANGLES}", "--set", theta_set,
                "--out-dir", d["simulate"],
            ],
            "fit": ["fit", "--config", fit_cfg, "--seed", str(inp["fit_seed"]), "--out-dir", d["fit"]],
            "moments-ex4": ["moments", "--preset", "ex4", "--out-dir", d["moments-ex4"]],
            "moments-ex3": ["moments", "--preset", "ex3", "--out-dir", d["moments-ex3"]],
            "cov": ["cov", "--config", cov_cfg, "--out-dir", d["cov"]],
            "mc-verify": ["mc-verify", "--config", self.mc_config, "--threads", "2", "--out-dir", d["mc-verify"]],
        }
        return [(name, lambda a=args, n=name: self._cli(a, f"{i}-{n}")) for name, args in argv.items()]

    def check(self, i, outputs):
        inp = self._inputs(i)
        problems = {}
        for name, (code, stderr) in outputs.items():
            out = checks.exit_code(name, code)
            if out:
                problems[name] = out + [stderr.strip()[-300:]]
                continue
            d = self._dir(i, name)
            if name == "simulate":
                rows = SIM_REPLICATES * len(SIM_TIMES) * SIM_ANGLES
                out += checks.history_csv(name, os.path.join(d, "history.csv"), rows, inp["sim_seed"])
            elif name == "fit":
                truth = {"sigma2": 1.0, "theta": SIM_THETA}
                out += checks.fit_report(name, os.path.join(d, "fit.json"), truth, FIT_REL_TOL)
            elif name == "moments-ex4":
                out += checks.moments_table(
                    name,
                    checks.read_table(os.path.join(d, "moments.csv")),
                    self.ex4_mean,
                    self.ex4_var,
                    {t: 1e-9 for t in self.ex4_mean},
                    self.ex4_var_tol,
                )
            elif name == "moments-ex3":
                out += checks.moments_table(
                    name,
                    checks.read_table(os.path.join(d, "moments.csv")),
                    self.ex3_mean,
                    self.ex3_var,
                    {t: 0.02 * m for t, m in self.ex3_mean.items()},
                    {t: 0.1 * v for t, v in self.ex3_var.items()},
                )
            elif name == "cov":
                out += checks.cov_rows(
                    name,
                    checks.read_table(os.path.join(d, "cov.csv")),
                    checks.cosine_weight_cov(inp["cov"]["coeffs"], inp["cov"]["lag"]),
                )
            elif name == "mc-verify":
                out += checks.mc_report(name, os.path.join(d, "mc_report.json"))
            problems[name] = out
        shutil.rmtree(os.path.join(self.workdir, f"round{i}"), ignore_errors=True)
        return problems

