"""Run-configuration schema: one nested key-value document drives every
command.

:func:`parse_config` checks the whole document before any command runs,
whichever command it is: the model, the grid, ``times``, ``seed``,
``replicates``, ``threads`` and the ``cov``, ``mc`` and ``fit`` blocks.
Every number and list of numbers goes through one reader, :func:`_read`,
which rejects a JSON boolean, NaN or an infinity, a wrong shape, an empty
list and an integer below its minimum.  Every mapping rejects a key that
its kind does not read.  A rejection is a :class:`ConfigError` at the
dotted path of the value, or of the list or mapping that holds it.  A
preset may be used as a base and overridden field by field; a block whose
kind the override changes replaces the preset's block.
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
from .growth import MODEL_KINDS, GrowthModelSpec, TumourWeight, asymmetry_profile
from .levy_core import BasisSpec, ControlMeasure, GridSpec, SpotLaw, TimeDensity
from .moments import check_problem
from .timefn import TimeFn


@dataclass
class RunConfig:
    """A checked document.  ``cov`` holds the checked values of the keys the
    ``cov`` block sets, ``mc`` one ``(statistic, points, lambdas,
    n_replicates)`` tuple per check, and ``fit`` the ``kind``, ``data`` and
    ``bounds`` of the ``fit`` block and its ``n_lags`` and ``orders`` if set."""

    spec: Optional[GrowthModelSpec]
    grid: Optional[GridSpec]
    times: tuple
    seed: int = 0
    replicates: int = 1
    threads: int = 1  # accepted and validated; no command uses it yet
    out_dir: str = "."
    fine: bool = False
    cov: Optional[dict] = None
    mc: Optional[tuple] = None
    fit: Optional[dict] = None


_REQUIRED = object()

# The shape of each key that holds a list of numbers (None: any nonzero
# length), the keys that hold integers, and the least value of the bounded
# keys.  Every other number key holds one finite number.
_LISTS = ("ts", "values", "nodes", "coeffs", "times", "dphis", "lambdas", "orders")
_SHAPES = {**dict.fromkeys(_LISTS, (None,)), "rows": (None, 6)}
_SHAPES.update(dict.fromkeys(("mu", "time_pairs", "points"), (None, 2)))
_INTEGERS = {"seed", "replicates", "threads", "k_max", "n_replicates", "n_lags", "orders"}
_MINIMUM = {"dphi_divisor": 1, "k_max": 0, "n_replicates": 2}
_MINIMUM.update(dict.fromkeys(("replicates", "threads", "n_lags", "orders"), 1))
_FLOAT_MAX = 1.7976931348623157e308


def _at(path, key):
    return f"{path}.{key}" if path else key


def _read(value, path, shape=(), low=None, integer=False):
    """``value`` as nested tuples of ``shape`` holding finite floats, or ints
    if ``integer``, none below ``low``.  Anything else, a JSON boolean
    included, is a ConfigError at ``path``."""
    if shape:
        n, inner = shape[0], shape[1:]
        if not isinstance(value, list) or not value or n not in (None, len(value)):
            expected = "a nonempty list" if n is None else f"{n} entries"
            raise ConfigError(f"expected {expected}", path)
        return tuple([_read(v, path, inner, low, integer) for v in value])
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        ok = False
    else:
        ok = (integer or abs(value) <= _FLOAT_MAX) and (low is None or value >= low)
    if not ok:
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"expected {'an integer' if integer else 'a finite number'}{bound}", path)
    return value if integer else float(value)


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
        raise ConfigError(f"expected a {kind.__name__}", _at(path, key))
    return val


def _num(block, key, path, default=_REQUIRED):
    """The number, or list of numbers, at ``block[key]``, read by its key's
    shape, integer type and minimum."""
    if key not in block:
        return _get(block, key, path, default=default)
    shape, low = _SHAPES.get(key, ()), _MINIMUM.get(key)
    return _read(block[key], _at(path, key), shape, low, key in _INTEGERS)


def _kind(block, path, kinds, what):
    """The ``kind`` of a mapping, a key of the ``kinds`` table, once that
    kind reads each key the mapping sets.  A key no kind reads is an error at
    the mapping, a key only other kinds read an error at the key."""
    _require_keys(block, {"kind"}.union(*kinds.values()), path)
    kind = _get(block, "kind", path, str)
    if kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}", path)
    for key in block:
        if key != "kind" and key not in kinds[kind]:
            raise ConfigError(f"not read by the {what} kind {kind!r}", _at(path, key))
    return kind


def _block_parser(parse):
    """Report a ``ValueError`` or ``OverflowError`` raised while building a
    block's objects as a :class:`ConfigError` at the block's dotted path."""

    @functools.wraps(parse)
    def wrapper(block, path):
        try:
            return parse(block, path)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc), path) from None

    return wrapper


# the keys of each kind of time function, in constructor order
_TIMEFN_KEYS = {
    "constant": ("value",),
    "proportional": ("factor",),
    "affine": ("intercept", "slope"),
    "table": ("ts", "values"),
    "step": ("ts", "values"),
    "gompertz": ("kappa0", "eta", "gamma"),
}


@_block_parser
def _timefn(block, path):
    if isinstance(block, (int, float)):
        return TimeFn.constant(_read(block, path))
    kind = _kind(block, path, _TIMEFN_KEYS, "time-function")
    return getattr(TimeFn, kind)(*(_num(block, key, path) for key in _TIMEFN_KEYS[kind]))


# the keys of each basis kind, in SpotLaw constructor order
_SPOT_KEYS = {
    "gaussian": ("a", "b"),
    "poisson": (),
    "gamma": ("beta", "alpha"),
    "inverse_gaussian": ("eta", "gamma"),
}


@_block_parser
def _spot(block, path):
    kind = _kind(block, path, _SPOT_KEYS, "basis")
    defaults = {"a": 0.0, "b": 1.0}
    args = [_num(block, key, path, defaults.get(key, _REQUIRED)) for key in _SPOT_KEYS[kind]]
    return getattr(SpotLaw, "gamma_law" if kind == "gamma" else kind)(*args)


# the keys of each control kind, in TimeDensity argument order
_CONTROL_KEYS = {
    "constant": ("c",),
    "linear": ("a",),
    "exponential": ("a", "b"),
    "power": ("a", "alpha"),
    "tabulated": ("nodes", "values"),
}


@_block_parser
def _control(block, path):
    kind = _kind(block, path, _CONTROL_KEYS, "control")
    args = [_num(block, key, path, 1.0 if key == "c" else _REQUIRED) for key in _CONTROL_KEYS[kind]]
    return ControlMeasure(getattr(TimeDensity, kind)(*args))


def _tumour_columns(rows, path):
    """Step functions of the tumour rows ``(t, T, t0, alpha, beta, phi0)``,
    one per column after ``t``."""
    for t, T, t0, _, _, phi0 in rows:
        if not (0.0 < t0 <= T <= t):
            raise ConfigError("tumour rows need 0 < t0(t) <= T(t) <= t", path)
        if not (0.0 < phi0 <= TWO_PI):
            raise ConfigError("phi0(t) must lie in (0, 2*pi]", path)
    ts = [r[0] for r in rows]
    return [TimeFn.step(ts, [r[i] for r in rows]) for i in range(1, 6)]


_AMBIT_KEYS = {
    "full_angle": ("T",),
    "rectangular": ("theta", "T"),
    "wedge": ("theta", "T"),
    "tumour": ("rows",),
}


@_block_parser
def _ambit(block, path):
    kind = _kind(block, path, _AMBIT_KEYS, "ambit")
    if kind == "wedge":
        return WedgeOverS(_num(block, "theta", path), _num(block, "T", path))
    if kind == "tumour":
        T, t0, _, _, phi0 = _tumour_columns(_num(block, "rows", path), path)
        return Tumour(T, t0, phi0)
    fns = [_timefn(_get(block, key, path), _at(path, key)) for key in _AMBIT_KEYS[kind]]
    return FullAngle(*fns) if kind == "full_angle" else Rectangular(*fns)


_WEIGHT_KEYS = {"constant": ("value",), "cosine": ("coeffs",)}


@_block_parser
def _weight(block, path):
    kind = _kind(block, path, _WEIGHT_KEYS, "weight")
    if kind == "constant":
        return ConstantWeight(_num(block, "value", path, 1.0))
    return FourierWeight.constant_coeffs(_num(block, "coeffs", path))


# the keys of each model kind: the tumour model sets its weight and ambit
# through its parameter rows
_MODEL_KEYS = dict.fromkeys(
    MODEL_KINDS, ("drift", "weight", "basis", "control", "ambit", "r0", "multiplier", "center")
)
_MODEL_KEYS["exponential_tumour"] = ("tumour", "basis", "control")


@_block_parser
def _model(block, path):
    kind = _kind(block, path, _MODEL_KEYS, "model")
    basis = BasisSpec(
        _spot(_get(block, "basis", path), path + ".basis"),
        _control(block.get("control", {"kind": "constant", "c": 1.0}), path + ".control"),
    )
    if kind == "exponential_tumour":
        tpath = path + ".tumour"
        tm = _get(block, "tumour", path)
        _require_keys(tm, {"rows", "mu"}, tpath)
        T, t0, alpha, beta, phi0 = _tumour_columns(_num(tm, "rows", tpath), tpath)
        family = Tumour(T, t0, phi0)
        ts, mu = zip(*_num(tm, "mu", tpath))
        return GrowthModelSpec(
            kind=kind,
            drift=TimeFn.step(ts, mu),
            weight=TumourWeight(family, alpha, beta),
            basis=basis,
            ambit=family,
        )
    mult_name = _get(block, "multiplier", path, str, None)
    if mult_name not in (None, "asymmetry"):
        raise ConfigError(f"unknown multiplier {mult_name!r}", path + ".multiplier")
    return GrowthModelSpec(
        kind=kind,
        drift=_timefn(block.get("drift", 0.0), path + ".drift"),
        weight=_weight(block.get("weight", {"kind": "constant", "value": 1.0}), path + ".weight"),
        basis=basis,
        ambit=_ambit(_get(block, "ambit", path), path + ".ambit"),
        r0=_num(block, "r0", path, 0.0),
        multiplier=asymmetry_profile if mult_name else None,
        center_stochastic_mean=_get(block, "center", path, bool, False),
    )


@_block_parser
def _grid(block, path):
    _require_keys(block, {"dphi_divisor", "dt", "t_min", "t_max"}, path)
    return GridSpec(
        TWO_PI / _num(block, "dphi_divisor", path),
        _num(block, "dt", path),
        _num(block, "t_min", path, 0.0),
        _num(block, "t_max", path),
    )


def _cov(block, path):
    _require_keys(block, {"k_max", "time_pairs", "dphis"}, path)
    return {key: _num(block, key, path) for key in block}


def _mc_check(block, path):
    _require_keys(block, {"statistic", "points", "lambdas", "n_replicates"}, path)
    statistic = _get(block, "statistic", path, str)
    points = _num(block, "points", path)
    lambdas = _num(block, "lambdas", path, None)
    problem = check_problem(statistic, points, lambdas)
    if problem is not None:
        raise ConfigError(problem[1], f"{path}.{problem[0]}")
    return statistic, points, lambdas, _num(block, "n_replicates", path, 1000)


def _mc(block, path):
    """The block's ``checks``, or the block itself as the one check."""
    if not isinstance(block, dict) or "checks" not in block:
        return (_mc_check(block, path),)
    _require_keys(block, {"checks"}, path)
    checks = _get(block, "checks", path, list)
    if not checks:
        raise ConfigError("expected a nonempty list", path + ".checks")
    return tuple(_mc_check(chk, f"{path}.checks[{i}]") for i, chk in enumerate(checks))


# the bounded parameters of each fit kind
_FIT_PARAMETERS = {"rect_gaussian": ("sigma2", "theta"), "fourier_scale": ("scale",)}


def _fit(block, path):
    _require_keys(block, {"kind", "data", "bounds", "n_lags", "orders"}, path)
    kind = _get(block, "kind", path, str)
    if kind not in _FIT_PARAMETERS:
        raise ConfigError(f"unknown fit kind {kind!r}", path + ".kind")
    bounds, names = _get(block, "bounds", path, dict), _FIT_PARAMETERS[kind]
    if sorted(bounds) != sorted(names):
        raise ConfigError(f"{kind} needs bounds for exactly {list(names)}", path + ".bounds")
    fit = {key: _num(block, key, path) for key in ("n_lags", "orders") if key in block}
    fit["kind"], fit["data"] = kind, _get(block, "data", path, str)
    fit["bounds"] = {k: _read(v, f"{path}.bounds.{k}", (2,)) for k, v in bounds.items()}
    return fit


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


def _deep_merge(base, override, path=""):
    """``override`` merged into ``base`` key by key.  A kind-tagged mapping
    whose ``kind`` the override changes is replaced whole, so it keeps no key
    of its old kind; the model block is merged whatever its kind, since all
    its kinds but the tumour model read the same keys."""
    if isinstance(base, dict) and isinstance(override, dict):
        kind = base.get("kind")
        if path != "model" and kind is not None and override.get("kind", kind) != kind:
            return override
        out = dict(base)
        for k, v in override.items():
            out[k] = _deep_merge(base[k], v, _at(path, k)) if k in base else v
        return out
    return override


_BLOCKS = {"model": _model, "grid": _grid, "cov": _cov, "mc": _mc, "fit": _fit}
_TOP_KEYS = {"preset", *_BLOCKS, "times", "seed", "replicates", "threads", "out_dir", "fine"}


def parse_config(doc) -> RunConfig:
    """Check a configuration document (dict) into a RunConfig.

    A ``preset`` key supplies a complete base document; remaining keys are
    deep-merged on top, so single fields of a preset can be overridden.
    """
    _require_keys(doc, _TOP_KEYS, "")
    preset_name = _get(doc, "preset", "", str, None)
    if preset_name is not None:
        base = preset_document(preset_name)
        doc = _deep_merge(base, {k: v for k, v in doc.items() if k != "preset"})
    if not any(k in doc for k in ("model", "cov", "fit")):
        raise ConfigError("either 'preset' or 'model' is required", "")
    blocks = {key: read(doc[key], key) for key, read in _BLOCKS.items() if key in doc}
    return RunConfig(
        spec=blocks.get("model"),
        grid=blocks.get("grid"),
        times=_num(doc, "times", "", ()),
        seed=_num(doc, "seed", "", 0),
        replicates=_num(doc, "replicates", "", 1),
        threads=_num(doc, "threads", "", 1),
        out_dir=_get(doc, "out_dir", "", str, "."),
        fine=_get(doc, "fine", "", bool, False),
        cov=blocks.get("cov"),
        mc=blocks.get("mc"),
        fit=blocks.get("fit"),
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
