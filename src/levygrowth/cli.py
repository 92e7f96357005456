"""Command-line interface.

Subcommands::

    simulate   sample growth histories and export profile / outline CSVs
    cov        tabulate the harmonic space-time covariance model
    moments    tabulate the analytic mean and variance of the linear predictor
    mc-verify  Monte Carlo z-checks of analytic moments (exit 4 on |z| > 3)
    fit        method-of-moments or coefficient-likelihood fitting

``moments`` reads the mean and variance from the same per-time terms the
simulator evaluates, at the first grid angle.  Its table is the linear
predictor: the radius (with ``r0``) for ``rate_linear``, ``log(R / r0)`` for
``rate_of_log``, the log radius for the tumour model, the radius for
``direct`` and the radius before the angular multiplier for
``direct_scaled``.  ``mc-verify`` checks the instantaneous ambit integral of
a :class:`~levygrowth.moments.MomentQuery`, whatever the model kind is, with
the model's own standard errors (:func:`~levygrowth.moments.mc_verify`).
Its checks are validated before any sampling: an unknown statistic, the
wrong number of points or missing exponents exit 2, and a point whose ambit
window the grid does not hold exits 3.

Every command takes a JSON configuration (``--config``) and/or a built-in
preset (``--preset``), overridable field by field with repeated
``--set dotted.path=value`` flags.  Outputs carry a provenance header with
the configuration hash and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .ambit import FullAngle, Rectangular
from .circle_cov import CircleCovModel, FourierWeight, harmonic_cov
from .config import RunConfig, apply_overrides, load_config_file, parse_config
from .errors import ConfigError, LevyGrowthError
from .growth import _Plan
from .inference import (
    ProfileDataset,
    fit_fourier_mle,
    fit_moments,
    ingest_profiles,
    rect_direct_cov_model,
)
from .levy_core import config_hash
from .moments import MomentQuery, check_problem, mc_verify
from .rngtools import mix_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_VERIFY = 4


def _provenance(cfg: RunConfig):
    h = config_hash(cfg.spec, _effective_grid(cfg)) if cfg.spec and cfg.grid else "none"
    return f"# levygrowth v{__version__} config={h} seed={cfg.seed}"


def _load(args) -> RunConfig:
    doc = load_config_file(args.config) if args.config else {}
    if args.preset:
        doc["preset"] = args.preset
    doc = apply_overrides(doc, args.set or [])
    for key in ("seed", "replicates", "threads", "out_dir"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    if args.fine:
        doc["fine"] = True
    cfg = parse_config(doc)
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _effective_grid(cfg):
    return cfg.grid.refined(4, 4) if cfg.fine else cfg.grid


def _simulation_plan(cfg, command):
    if cfg.spec is None or cfg.grid is None or not cfg.times:
        raise ConfigError(f"{command} needs a model, a grid and times", "")
    return _Plan(cfg.spec, _effective_grid(cfg), cfg.times)


def cmd_simulate(args):
    cfg = _load(args)
    plan = _simulation_plan(cfg, "simulate")
    n = cfg.replicates
    seeds = [cfg.seed] if n == 1 else [mix_seed(cfg.seed, r) for r in range(n)]
    histories = [plan.history(s) for s in seeds]
    ds = ProfileDataset.from_histories(histories)
    ds.to_csv(os.path.join(cfg.out_dir, "history.csv"), _provenance(cfg))
    histories[0].to_polyline_csv(os.path.join(cfg.out_dir, "outline.csv"))
    print(f"wrote {cfg.out_dir}/history.csv and {cfg.out_dir}/outline.csv")
    return EXIT_OK


def _cov_ingredients(cfg):
    spec = cfg.spec
    if not isinstance(spec.weight, FourierWeight):
        raise ConfigError("cov needs a cosine-series weight", "model.weight")
    if not isinstance(spec.ambit, FullAngle):
        raise ConfigError("cov needs a full-angle ambit", "model.ambit")
    return spec.weight, spec.basis.variance_density(), spec.ambit.T


def cmd_cov(args):
    cfg = _load(args)
    block = cfg.cov or {}
    weight, g_var, T = _cov_ingredients(cfg)
    k_max = int(block.get("k_max", weight.k_max))
    model = CircleCovModel.from_weight(weight, g_var, T, k_max)
    pairs = block.get("time_pairs") or [[t, t] for t in cfg.times]
    dphis = block.get("dphis") or list(np.linspace(0.0, math.pi, 9))
    path = os.path.join(cfg.out_dir, "cov.csv")
    with open(path, "w") as fh:
        fh.write(_provenance(cfg) + "\n")
        fh.write("t1,t2,dphi,cov\n")
        for t1, t2 in pairs:
            for d in dphis:
                fh.write(
                    f"{float(t1)!r},{float(t2)!r},{float(d)!r},"
                    f"{float(model.cov(t1, 0.0, t2, d))!r}\n"
                )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_moments(args):
    cfg = _load(args)
    plan = _simulation_plan(cfg, "moments")
    path = os.path.join(cfg.out_dir, "moments.csv")
    with open(path, "w") as fh:
        fh.write(_provenance(cfg) + "\n")
        fh.write("t,mean,variance\n")
        for t, radius in zip(plan.times, plan.radii):
            mean, var = radius.moments()
            fh.write(f"{float(t)!r},{float(mean)!r},{float(var)!r}\n")
    print(f"wrote {path}")
    return EXIT_OK


def _mc_queries(cfg):
    """The mc-verify checks as (query, statistic, n_replicates), all validated
    before any sampling; a bad check is a ConfigError at its dotted path."""
    if cfg.mc is None:
        raise ConfigError("mc-verify needs an 'mc' block", "mc")
    listed = cfg.mc.get("checks")
    blocks = [("mc", cfg.mc)]
    if listed:
        blocks = [(f"mc.checks[{i}]", chk) for i, chk in enumerate(listed)]
    grid = _effective_grid(cfg)
    queries = []
    for path, chk in blocks:
        if not isinstance(chk, dict):
            raise ConfigError("expected a mapping", path)
        statistic = chk.get("statistic")
        try:
            points = tuple((float(t), float(p)) for t, p in chk.get("points", []))
        except (TypeError, ValueError):
            raise ConfigError("points must be [t, phi] pairs", f"{path}.points") from None
        if statistic is None or not points:
            raise ConfigError("each check needs 'statistic' and 'points'", path)
        lambdas = tuple(chk["lambdas"]) if chk.get("lambdas") else None
        problem = check_problem(statistic, points, lambdas)
        if problem is not None:
            raise ConfigError(problem[1], f"{path}.{problem[0]}")
        n = int(chk.get("n_replicates", 1000))
        if n < 2:
            raise ConfigError("needs at least 2 replicates", f"{path}.n_replicates")
        spec = cfg.spec
        q = MomentQuery(spec.basis, spec.ambit, spec.weight, grid, points, lambdas)
        queries.append((q, statistic, n))
    return queries


def cmd_mc_verify(args):
    cfg = _load(args)
    reports = [
        json.loads(mc_verify(q, statistic, n, cfg.seed, threads=cfg.threads).to_json())
        for q, statistic, n in _mc_queries(cfg)
    ]
    path = os.path.join(cfg.out_dir, "mc_report.json")
    with open(path, "w") as fh:
        json.dump({"provenance": _provenance(cfg), "reports": reports}, fh, indent=2)
    print(f"wrote {path}")
    if any(r["flagged"] for r in reports):
        print("verification FAILED: |z| > 3", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_fit(args):
    cfg = _load(args)
    if cfg.fit is None:
        raise ConfigError("fit needs a 'fit' block", "fit")
    block = cfg.fit
    kind = block.get("kind")
    data_path = block.get("data")
    if not data_path:
        raise ConfigError("fit needs 'data' (CSV path)", "fit.data")
    dataset = ingest_profiles(data_path)
    bounds = {k: tuple(v) for k, v in block.get("bounds", {}).items()}
    if kind == "rect_gaussian":
        ambit_family = cfg.spec.ambit if cfg.spec else None
        if not isinstance(ambit_family, Rectangular):
            raise ConfigError("rect_gaussian fit needs a rectangular ambit", "model.ambit")
        model_cov = rect_direct_cov_model(ambit_family.T, cfg.spec.basis.control.g)
        result = fit_moments(
            model_cov,
            dataset,
            bounds,
            seed=cfg.seed,
            n_lags=int(block.get("n_lags", 16)),
        )
    elif kind == "fourier_scale":
        weight, g_var, T = _cov_ingredients(cfg)
        orders = [int(k) for k in block.get("orders", range(1, weight.k_max + 1))]

        def tau_family(params):
            scale = params["scale"]
            return lambda k, t1, t2: scale * harmonic_cov(weight, g_var, T, t1, t2, k)

        result = fit_fourier_mle(
            dataset, tau_family, bounds, orders=orders, seed=cfg.seed
        )
    else:
        raise ConfigError(f"unknown fit kind {kind!r}", "fit.kind")
    path = os.path.join(cfg.out_dir, "fit.json")
    payload = json.loads(result.to_json())
    payload["provenance"] = _provenance(cfg)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--preset", help="built-in parameterization (ex3, ex4, ex5, ex6, tumour)")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field by dotted path (repeatable)",
    )
    p.add_argument("--seed", type=int, help="base seed for all randomness")
    p.add_argument("--replicates", type=int, help="number of Monte Carlo replicates")
    p.add_argument("--out-dir", help="directory for output files")
    p.add_argument(
        "--threads", type=int, help="replicate parallelism degree (mc-verify only)"
    )
    p.add_argument(
        "--fine",
        action="store_true",
        help="refine the grid 4x in each axis (quantifies discretization bias)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levygrowth",
        description="Levy-driven radial growth: simulation, covariances, verification, fitting",
    )
    parser.add_argument("--version", action="version", version=f"levygrowth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate", cmd_simulate, "sample growth histories to CSV"),
        ("cov", cmd_cov, "tabulate the space-time covariance model"),
        ("moments", cmd_moments, "tabulate the linear predictor's analytic mean/variance"),
        ("mc-verify", cmd_mc_verify, "Monte Carlo checks of analytic moments"),
        ("fit", cmd_fit, "fit model parameters to profile data"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LevyGrowthError as exc:
        print(f"model error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
