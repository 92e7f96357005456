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

Every command takes a JSON configuration (``--config``) and/or a built-in
preset (``--preset``), overridable field by field with repeated
``--set dotted.path=value`` flags.  :func:`levygrowth.config.parse_config`
checks the whole document before any work, so a malformed block exits 2
whatever the command.  A command checks only what needs the built model:
the weight or ambit that ``cov`` and ``fit`` need and ``fit``'s data file
(exit 2), and mc-verify points the grid does not hold (exit 3).  The output
directory is made on the first write, so a failed check leaves none.
Outputs carry a provenance header with the configuration hash and seed.
``--log-level`` prints the library's log records at that level and above
to stderr (at DEBUG, what a simulation's replicate draws); without it the
library stays silent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .ambit import FullAngle, Rectangular
from .circle_cov import CircleCovModel, FourierWeight, harmonic_cov
from .config import RunConfig, apply_overrides, load_config_file, parse_config
from .csvrows import csv_block, reprs
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
from .moments import MomentQuery, mc_verify
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
    return parse_config(doc)


def _output(cfg, name):
    """The path of output file ``name``; the output directory is made on the
    first write, so a command that fails before it leaves none."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


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
    if n == 1:
        seed0, profiles = cfg.seed, plan.profiles(cfg.seed)[None]
    else:
        seed0, profiles = mix_seed(cfg.seed, 0), plan.replicates(cfg.seed, n)
    ds = ProfileDataset(plan.times, plan.grid.phi_mids, profiles)
    ds.to_csv(_output(cfg, "history.csv"), _provenance(cfg))
    outline = plan.history(profiles[0], seed0)
    outline.to_polyline_csv(_output(cfg, "outline.csv"))
    print(f"wrote {cfg.out_dir}/history.csv and {cfg.out_dir}/outline.csv")
    return EXIT_OK


def _cov_ingredients(cfg):
    spec = cfg.spec
    if not isinstance(getattr(spec, "weight", None), FourierWeight):
        raise ConfigError("cov needs a cosine-series weight", "model.weight")
    if not isinstance(spec.ambit, FullAngle):
        raise ConfigError("cov needs a full-angle ambit", "model.ambit")
    return spec.weight, spec.basis.variance_density(), spec.ambit.T


def cmd_cov(args):
    cfg = _load(args)
    block = cfg.cov or {}
    weight, g_var, T = _cov_ingredients(cfg)
    pairs = block.get("time_pairs", [(t, t) for t in cfg.times])
    if not pairs:
        raise ConfigError("cov needs time_pairs or times", "cov.time_pairs")
    dphis = block.get("dphis", np.linspace(0.0, math.pi, 9))
    model = CircleCovModel.from_weight(weight, g_var, T, block.get("k_max", weight.k_max))
    rows = model.table(pairs, dphis)
    path = _output(cfg, "cov.csv")
    with open(path, "w") as fh:
        fh.write(_provenance(cfg) + "\n")
        fh.write("t1,t2,dphi,cov\n")
        fh.write(csv_block(*map(reprs, rows.T)))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_moments(args):
    cfg = _load(args)
    plan = _simulation_plan(cfg, "moments")
    path = _output(cfg, "moments.csv")
    with open(path, "w") as fh:
        fh.write(_provenance(cfg) + "\n")
        fh.write("t,mean,variance\n")
        mean, var = zip(*(radius.moments() for radius in plan.radii))
        fh.write(csv_block(reprs(plan.times), reprs(mean), reprs(var)))
    print(f"wrote {path}")
    return EXIT_OK


def _mc_queries(cfg):
    """The mc-verify checks as (query, statistic, n_replicates); a point the
    grid does not hold raises RegionOutsideGrid before any sampling."""
    if cfg.mc is None or cfg.spec is None or cfg.grid is None:
        raise ConfigError("mc-verify needs a model, a grid and an 'mc' block", "mc")
    spec, grid = cfg.spec, _effective_grid(cfg)
    return [
        (MomentQuery(spec.basis, spec.ambit, spec.weight, grid, points, lambdas), statistic, n)
        for statistic, points, lambdas, n in cfg.mc
    ]


def cmd_mc_verify(args):
    cfg = _load(args)
    reports = [
        json.loads(mc_verify(q, statistic, n, cfg.seed).to_json())
        for q, statistic, n in _mc_queries(cfg)
    ]
    path = _output(cfg, "mc_report.json")
    with open(path, "w") as fh:
        json.dump({"provenance": _provenance(cfg), "reports": reports}, fh, indent=2)
    print(f"wrote {path}")
    if any(r["flagged"] for r in reports):
        print("verification FAILED: |z| > 3", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _fit_request(cfg):
    """The configured fit as a function of the dataset, checked against the
    model before any data are read."""
    block = cfg.fit
    if block is None:
        raise ConfigError("fit needs a 'fit' block", "fit")
    bounds = block["bounds"]
    if block["kind"] == "rect_gaussian":
        ambit_family = cfg.spec.ambit if cfg.spec else None
        if not isinstance(ambit_family, Rectangular):
            raise ConfigError("rect_gaussian fit needs a rectangular ambit", "model.ambit")
        model_cov = rect_direct_cov_model(ambit_family.T, cfg.spec.basis.control.g)
        n_lags = block.get("n_lags", 16)
        return lambda data: fit_moments(model_cov, data, bounds, seed=cfg.seed, n_lags=n_lags)
    weight, g_var, T = _cov_ingredients(cfg)
    orders = block.get("orders", range(1, weight.k_max + 1))
    if not orders:
        raise ConfigError("the cosine weight has no order >= 1 to fit", "fit.orders")

    def tau_family(params):
        scale = params["scale"]
        return lambda k, t1, t2: scale * harmonic_cov(weight, g_var, T, t1, t2, k)

    return lambda data: fit_fourier_mle(data, tau_family, bounds, orders=orders, seed=cfg.seed)


def cmd_fit(args):
    cfg = _load(args)
    fit = _fit_request(cfg)
    if not os.path.isfile(cfg.fit["data"]):
        raise ConfigError(f"no data file {cfg.fit['data']!r}", "fit.data")
    result = fit(ingest_profiles(cfg.fit["data"]))
    path = _output(cfg, "fit.json")
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
        "--threads",
        type=int,
        help="accepted, but currently without effect: every command runs single-threaded",
    )
    p.add_argument(
        "--log-level",
        type=str.upper,
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="print the library's log records at this level and above to stderr",
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


@contextlib.contextmanager
def _stderr_log(level):
    """While a command runs, a stderr handler on the package logger at
    ``level``; none without one."""
    if level is None:
        yield
        return
    logger = logging.getLogger("levygrowth")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv=None):
    args = build_parser().parse_args(argv)
    with _stderr_log(args.log_level):
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
