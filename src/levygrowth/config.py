"""Run-configuration schema: one nested key-value document drives every
command.  Unknown keys are rejected with a dotted-path diagnostic, presets
may be used as a base and overridden field by field.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

from .ambit import ConstantWeight, FullAngle, Rectangular, Tumour, WedgeOverS
from .circle_cov import FourierWeight
from .cyclic import TWO_PI
from .errors import ConfigError
from .growth import GrowthModelSpec, TumourWeight, asymmetry_profile
from .levy_core import BasisSpec, ControlMeasure, GridSpec, SpotLaw, TimeDensity
from .timefn import TimeFn

_TOP_KEYS = {
    "preset",
    "model",
    "grid",
    "times",
    "seed",
    "replicates",
    "threads",
    "out_dir",
    "fine",
    "cov",
    "mc",
    "fit",
}


@dataclass
class RunConfig:
    spec: Optional[GrowthModelSpec]
    grid: Optional[GridSpec]
    times: tuple
    seed: int = 0
    replicates: int = 1
    threads: int = 1  # accepted and validated; no command uses it yet
    out_dir: str = "."
    fine: bool = False
    cov: Optional[dict] = None
    mc: Optional[dict] = None
    fit: Optional[dict] = None
    preset_name: Optional[str] = None


_REQUIRED = object()


def _require_keys(block, allowed, path):
    if not isinstance(block, dict):
        raise ConfigError("expected a mapping", path)
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", path)


def _get(block, key, path, kind=None, default=_REQUIRED):
    if key not in block:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing required key {key!r}", path)
    val = block[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"{key!r} has wrong type", path)
    return val


def _block_parser(parse):
    """Report a ``ValueError`` raised while building a block's objects as a
    :class:`ConfigError` at the block's dotted path."""

    @functools.wraps(parse)
    def wrapper(block, path, *args):
        try:
            return parse(block, path, *args)
        except ValueError as exc:
            raise ConfigError(str(exc), path) from None

    return wrapper


@_block_parser
def _timefn(block, path):
    if isinstance(block, (int, float)):
        return TimeFn.constant(block)
    _require_keys(
        block,
        {"kind", "value", "factor", "intercept", "slope", "ts", "values", "kappa0", "eta", "gamma"},
        path,
    )
    kind = _get(block, "kind", path, str)
    if kind == "constant":
        return TimeFn.constant(_get(block, "value", path, (int, float)))
    if kind == "proportional":
        return TimeFn.proportional(_get(block, "factor", path, (int, float)))
    if kind == "affine":
        return TimeFn.affine(
            _get(block, "intercept", path, (int, float)),
            _get(block, "slope", path, (int, float)),
        )
    if kind in ("table", "step"):
        ts = _get(block, "ts", path, list)
        vs = _get(block, "values", path, list)
        return TimeFn.table(ts, vs) if kind == "table" else TimeFn.step(ts, vs)
    if kind == "gompertz":
        return TimeFn.gompertz(
            _get(block, "kappa0", path, (int, float)),
            _get(block, "eta", path, (int, float)),
            _get(block, "gamma", path, (int, float)),
        )
    raise ConfigError(f"unknown time-function kind {kind!r}", path)


@_block_parser
def _spot(block, path):
    _require_keys(block, {"kind", "a", "b", "beta", "alpha", "eta", "gamma"}, path)
    kind = _get(block, "kind", path, str)
    if kind == "gaussian":
        return SpotLaw.gaussian(
            _get(block, "a", path, (int, float), 0.0),
            _get(block, "b", path, (int, float), 1.0),
        )
    if kind == "poisson":
        return SpotLaw.poisson()
    if kind == "gamma":
        return SpotLaw.gamma_law(
            _get(block, "beta", path, (int, float)),
            _get(block, "alpha", path, (int, float)),
        )
    if kind == "inverse_gaussian":
        return SpotLaw.inverse_gaussian(
            _get(block, "eta", path, (int, float)),
            _get(block, "gamma", path, (int, float)),
        )
    raise ConfigError(f"unknown basis kind {kind!r}", path)


# parameter keys of each control kind, in TimeDensity argument order
_CONTROL_KEYS = {
    "constant": ("c",),
    "linear": ("a",),
    "exponential": ("a", "b"),
    "power": ("a", "alpha"),
    "tabulated": ("nodes", "values"),
}


@_block_parser
def _control(block, path):
    _require_keys(block, {"kind", "c", "a", "b", "alpha", "nodes", "values"}, path)
    kind = _get(block, "kind", path, str)
    if kind not in _CONTROL_KEYS:
        raise ConfigError(f"unknown control kind {kind!r}", path)
    if kind == "constant":
        args = [_get(block, "c", path, (int, float), 1.0)]
    else:
        types = list if kind == "tabulated" else (int, float)
        args = [_get(block, key, path, types) for key in _CONTROL_KEYS[kind]]
    return ControlMeasure(getattr(TimeDensity, kind)(*args))


def _basis(block, path):
    return BasisSpec(
        _spot(_get(block, "basis", path, dict), path + ".basis"),
        _control(
            _get(block, "control", path, dict, {"kind": "constant", "c": 1.0}), path + ".control"
        ),
    )


def _tumour_columns(rows, path):
    """Step functions of the tumour rows ``(t, T, t0, alpha, beta, phi0)``,
    one per column after ``t``."""
    rows = [tuple(map(float, r)) for r in rows]
    for t, T, t0, _, _, phi0 in rows:
        if not (0.0 < t0 <= T <= t):
            raise ConfigError("tumour rows need 0 < t0(t) <= T(t) <= t", path)
        if not (0.0 < phi0 <= TWO_PI):
            raise ConfigError("phi0(t) must lie in (0, 2*pi]", path)
    ts = [r[0] for r in rows]
    return [TimeFn.step(ts, [r[i] for r in rows]) for i in range(1, 6)]


@_block_parser
def _ambit(block, path):
    _require_keys(block, {"kind", "T", "theta", "rows", "t0", "phi0"}, path)
    kind = _get(block, "kind", path, str)
    if kind == "full_angle":
        return FullAngle(_timefn(_get(block, "T", path), path + ".T"))
    if kind == "rectangular":
        return Rectangular(
            _timefn(_get(block, "theta", path), path + ".theta"),
            _timefn(_get(block, "T", path), path + ".T"),
        )
    if kind == "wedge":
        return WedgeOverS(
            float(_get(block, "theta", path, (int, float))),
            float(_get(block, "T", path, (int, float))),
        )
    if kind == "tumour":
        T, t0, _, _, phi0 = _tumour_columns(_get(block, "rows", path, list), path)
        return Tumour(T, t0, phi0)
    raise ConfigError(f"unknown ambit kind {kind!r}", path)


@_block_parser
def _weight(block, path, spec_kind, ambit_obj):
    if spec_kind == "exponential_tumour":
        raise ConfigError("tumour weight is configured through the ambit rows", path)
    _require_keys(block, {"kind", "value", "coeffs"}, path)
    kind = _get(block, "kind", path, str)
    if kind == "constant":
        return ConstantWeight(float(_get(block, "value", path, (int, float), 1.0)))
    if kind == "cosine":
        return FourierWeight.constant_coeffs(_get(block, "coeffs", path, list))
    raise ConfigError(f"unknown weight kind {kind!r}", path)


@_block_parser
def _model(block, path):
    allowed = {
        "kind",
        "drift",
        "weight",
        "basis",
        "control",
        "ambit",
        "r0",
        "multiplier",
        "center",
        "tumour",
    }
    _require_keys(block, allowed, path)
    kind = _get(block, "kind", path, str)
    basis = _basis(block, path)
    if kind == "exponential_tumour":
        tpath = path + ".tumour"
        tm = _get(block, "tumour", path, dict)
        _require_keys(tm, {"rows", "mu"}, tpath)
        T, t0, alpha, beta, phi0 = _tumour_columns(_get(tm, "rows", tpath, list), tpath)
        family = Tumour(T, t0, phi0)
        mu = [tuple(map(float, r)) for r in _get(tm, "mu", tpath, list)]
        return GrowthModelSpec(
            kind="exponential_tumour",
            drift=TimeFn.step([t for t, _ in mu], [v for _, v in mu]),
            weight=TumourWeight(family, alpha, beta),
            basis=basis,
            ambit=family,
        )
    ambit_obj = _ambit(_get(block, "ambit", path, dict), path + ".ambit")
    weight = _weight(
        _get(block, "weight", path, dict, {"kind": "constant", "value": 1.0}),
        path + ".weight",
        kind,
        ambit_obj,
    )
    mult_name = _get(block, "multiplier", path, str, None)
    if mult_name is not None and mult_name != "asymmetry":
        raise ConfigError(f"unknown multiplier {mult_name!r}", path + ".multiplier")
    return GrowthModelSpec(
        kind=kind,
        drift=_timefn(_get(block, "drift", path, default=0.0), path + ".drift"),
        weight=weight,
        basis=basis,
        ambit=ambit_obj,
        r0=float(_get(block, "r0", path, (int, float), 0.0)),
        multiplier=asymmetry_profile if mult_name == "asymmetry" else None,
        center_stochastic_mean=bool(_get(block, "center", path, bool, False)),
    )


@_block_parser
def _grid(block, path):
    _require_keys(block, {"dphi_divisor", "dt", "t_min", "t_max"}, path)
    divisor = _get(block, "dphi_divisor", path, (int, float))
    return GridSpec(
        TWO_PI / float(divisor),
        float(_get(block, "dt", path, (int, float))),
        float(_get(block, "t_min", path, (int, float), 0.0)),
        float(_get(block, "t_max", path, (int, float))),
    )


PRESET_DOCUMENTS = {
    "ex3": {
        "model": {
            "kind": "rate_linear",
            "drift": {"kind": "constant", "value": 0.0},
            "weight": {"kind": "constant", "value": 1.0},
            "basis": {"kind": "poisson"},
            "control": {"kind": "linear", "a": 10.0},
            "ambit": {"kind": "wedge", "theta": 0.5, "T": 1.0},
            "r0": 0.0,
        },
        "grid": {"dphi_divisor": 400, "dt": 0.25, "t_min": 0.0, "t_max": 125.0},
        "times": [75.0, 100.0, 125.0],
    },
    "ex4": {
        "model": {
            "kind": "direct",
            "drift": {"kind": "table", "ts": [20.0, 45.0, 80.0], "values": [16.0, 24.0, 32.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "basis": {"kind": "gaussian", "a": 0.0, "b": 1.0},
            "control": {"kind": "constant", "c": 1.0},
            "ambit": {
                "kind": "rectangular",
                "theta": {"kind": "constant", "value": math.pi / 100},
                "T": {"kind": "proportional", "factor": 0.2},
            },
        },
        "grid": {"dphi_divisor": 1000, "dt": 1.0, "t_min": 0.0, "t_max": 80.0},
        "times": [20.0, 45.0, 80.0],
    },
    "tumour": {
        "model": {
            "kind": "exponential_tumour",
            "tumour": {
                "rows": [
                    [21.0, 21.0, 19.0, 0.04, -0.033, 0.19],
                    [25.0, 25.0, 17.0, 0.02, -0.033, 0.19],
                    [55.0, 18.0, 4.0, 0.01, -0.067, 0.23],
                ],
                "mu": [[21.0, 5.0], [25.0, 5.2], [55.0, 5.8]],
            },
            "basis": {"kind": "gaussian", "a": 0.0, "b": 1.0},
            "control": {"kind": "constant", "c": 1.0},
        },
        "grid": {"dphi_divisor": 1000, "dt": 1.0, "t_min": 0.0, "t_max": 55.0},
        "times": [21.0, 25.0, 55.0],
    },
}
def _variant_of_ex4(**model_changes):
    doc = json.loads(json.dumps(PRESET_DOCUMENTS["ex4"]))
    doc["model"].update(model_changes)
    return doc


# ex5 / ex6 are field-level variations of ex4
PRESET_DOCUMENTS["ex5"] = _variant_of_ex4(
    basis={"kind": "gamma", "beta": 1.0, "alpha": 1.0}, center=True
)
PRESET_DOCUMENTS["ex6"] = _variant_of_ex4(kind="direct_scaled", multiplier="asymmetry")


def preset_document(name):
    """The full configuration document equivalent to a built-in preset."""
    key = str(name).lower()
    if key not in PRESET_DOCUMENTS:
        raise ConfigError(f"unknown preset {name!r}", "preset")
    return json.loads(json.dumps(PRESET_DOCUMENTS[key]))


def _deep_merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        out = dict(base)
        for k, v in override.items():
            out[k] = _deep_merge(base[k], v) if k in base else v
        return out
    return override


def parse_config(doc) -> RunConfig:
    """Validate a configuration document (dict) into a RunConfig.

    A ``preset`` key supplies a complete base document; remaining keys are
    deep-merged on top, so single fields of a preset can be overridden.
    """
    _require_keys(doc, _TOP_KEYS, "")
    preset_name = _get(doc, "preset", "", str, None)
    if preset_name is not None:
        base = preset_document(preset_name)
        doc = _deep_merge(base, {k: v for k, v in doc.items() if k != "preset"})
    spec = grid = None
    times = ()
    if "model" in doc:
        spec = _model(doc["model"], "model")
    if "grid" in doc:
        grid = _grid(doc["grid"], "grid")
    if "times" in doc:
        raw = _get(doc, "times", "", list)
        times = tuple(float(t) for t in raw)
    if spec is None and not any(k in doc for k in ("cov", "fit")):
        raise ConfigError("either 'preset' or 'model' is required", "")
    return RunConfig(
        spec=spec,
        grid=grid,
        times=times,
        seed=int(_get(doc, "seed", "", int, 0)),
        replicates=int(_get(doc, "replicates", "", int, 1)),
        threads=int(_get(doc, "threads", "", int, 1)),
        out_dir=str(_get(doc, "out_dir", "", str, ".")),
        fine=bool(_get(doc, "fine", "", bool, False)),
        cov=_get(doc, "cov", "", dict, None),
        mc=_get(doc, "mc", "", dict, None),
        fit=_get(doc, "fit", "", dict, None),
        preset_name=preset_name,
    )


def apply_overrides(doc, assignments):
    """Apply ``dotted.path=json_value`` strings onto a config document."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE", "--set")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        node = doc
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {part!r}", "--set")
        node[parts[-1]] = value
    return doc


def load_config_file(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", "--config") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", "--config") from None
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be an object", "--config")
    return doc
