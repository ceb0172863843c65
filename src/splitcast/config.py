"""Experiment configuration: flat ``key = value`` files plus CLI overrides.

Lines are ``key = value`` pairs; ``#`` starts a comment (whole line or
trailing).  List values are comma separated.  The environment variable
``SPLITCAST_CONFIG`` names a default configuration file used when no
``--config`` flag is given.
"""

import datetime as dt
import math
import os
import typing
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .features import KINDS, row_length
from .panel import DEFAULT_SCHEMA, DERIVED, OPTIONAL_SCHEMA

ENV_CONFIG = "SPLITCAST_CONFIG"

METHOD_NAMES = ("point", "qr", "hist", "ms")
# members of one (day, hour) ensemble at most.  The multivariate rank of M
# members holds three (M + 1, ceil((M + 1) / 64)) uint64 bitsets
# (``scores.preranks``): about 0.4 GB at this bound, and about 5 MB at the
# paper's 3,660 members (20 splits of 183 calibration days).
MAX_MEMBERS = 2 ** 15


def _bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _date(text):
    try:
        return dt.date.fromisoformat(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"not an ISO date: {text!r}") from exc


def _parse(annotation, text):
    """A config value from its text, by the field's annotation."""
    if typing.get_origin(annotation) is tuple:
        item = typing.get_args(annotation)[0]
        return tuple(item(part.strip()) for part in text.split(",") if part.strip())
    return {bool: _bool, dt.date: _date}.get(annotation, annotation)(text)


def _fit_rows(kinds):
    """Rows a least squares fit of any of ``kinds`` needs: 2 per regressor."""
    return max((2 * row_length(k, h) for k in kinds for h in range(1, 25)), default=0)


def check_level(value, name):
    """Raise ConfigError unless ``0 < value < 1``; NaN fails too."""
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} {value} outside (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a backtest run needs besides the panel itself."""

    input_path: str = None
    output_dir: str = "splitcast_out"
    calibration_window_days: int = 365
    evaluation_days: int = 730
    evaluation_start: dt.date = None
    n_splits: int = 20
    split_ratio: float = 0.5
    master_seed: int = 20200101
    variables: tuple[str, ...] = ("DA", "ID", "L", "RES", "W")
    derived: tuple[str, ...] = ("SP", "RL")
    qr_variables: tuple[str, ...] = ("DA", "ID", "L", "RES", "SP", "RL")
    mv_variables: tuple[str, ...] = ("DA", "ID", "L", "RES")
    methods: tuple[str, ...] = METHOD_NAMES
    ms_modes: tuple[str, ...] = ("corr", "uncorr")
    interval_levels: tuple[float, ...] = (0.8, 0.9, 0.95, 0.98)
    m_bins: int = 10
    trading: bool = True
    trading_method: str = "ms"
    strategies: tuple[str, ...] = ("epi", "var", "sr")
    stopping_taus: tuple[float, ...] = (0.05, 0.3, 0.5, 0.7, 0.95, 1.0)
    var_level: float = 0.05
    c_om: float = 10.0
    inner_window: int = None
    workers: int = 1
    schema: dict = field(default_factory=dict)

    def min_calibration_window(self):
        """Shortest calibration window that leaves every configured fit 2 rows
        per regressor: point and QR fits use the whole window, ms fits
        ``round(split_ratio * window)`` days and hist fits ``inner_window``
        days (default: half the window), and the days left over give an ms
        or hist ensemble at least 2 members."""
        need = 30
        if "point" in self.methods or self.trading:
            need = max(need, _fit_rows(KINDS if "point" in self.methods else ("W",)))
        if "qr" in self.methods:
            need = max(need, _fit_rows(self.qr_variables))
        ens = _fit_rows(self.variables)
        if "hist" in self.methods:
            need = max(need, 2 * ens if self.inner_window is None else self.inner_window + 2)
        if "ms" in self.methods:
            # the estimation side has ens rows, the calibration sides 2 days in all
            r = self.split_ratio
            need = max(need, int((ens - 0.5) / r), int(0.5 / (1.0 - r)))
            while round(r * need) < ens or self.n_splits * (need - round(r * need)) < 2:
                need += 1
        return need

    def validate(self):
        for f in fields(self):
            values = getattr(self, f.name)
            if isinstance(values, (tuple, list)):
                repeated = [v for i, v in enumerate(values) if v in values[:i]]
                if repeated:
                    raise ConfigError(f"{f.name} lists {repeated[0]!r} more than once")
        if self.evaluation_days < 1:
            raise ConfigError("evaluation_days must be positive")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be inside (0, 1)")
        if self.n_splits < 1:
            raise ConfigError("n_splits must be at least 1")
        for v in self.variables:
            if v not in KINDS:
                raise ConfigError(f"unknown variable {v!r}")
        for v in self.derived:
            if v not in DERIVED:
                raise ConfigError(f"unknown derived variable {v!r}")
        for v in self.qr_variables:
            if v not in KINDS:
                raise ConfigError(f"unknown qr variable {v!r}")
        for v in self.mv_variables:
            if v not in self.variables:
                raise ConfigError(f"mv variable {v!r} not in the ensemble variable set")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}")
        for m in self.ms_modes:
            if m not in ("corr", "uncorr"):
                raise ConfigError(f"unknown ms mode {m!r}")
        for level in self.interval_levels:
            check_level(level, "interval level")
        check_level(self.var_level, "var_level")
        if not math.isfinite(self.c_om):
            raise ConfigError(f"c_om {self.c_om} is not a finite number")
        for tau in self.stopping_taus:
            if not 0.0 < tau <= 1.0:
                raise ConfigError(f"stopping tau {tau} outside (0, 1]")
        if "hist" in self.methods or "ms" in self.methods:
            if not self.variables:
                raise ConfigError("methods hist and ms need at least one ensemble variable")
            # the ensembles derive SP and RL from their parents' members
            for name in self.derived:
                if name in self.variables:  # its fan key would be the variable's
                    raise ConfigError(f"derived {name} is also an ensemble variable")
                for parent in DERIVED[name]:
                    if parent not in self.variables:
                        raise ConfigError(f"derived {name} needs variable {parent} in the "
                                          f"ensemble set")
        if self.trading:
            if self.trading_method not in ("ms", "hist"):
                raise ConfigError("trading_method must be ms or hist")
            if self.trading_method == "ms" and ("ms" not in self.methods
                                                or "corr" not in self.ms_modes):
                raise ConfigError("trading_method ms needs method ms with mode corr")
            if self.trading_method == "hist" and "hist" not in self.methods:
                raise ConfigError("trading_method hist needs method hist")
            for needed in ("DA", "ID", "W"):
                if needed not in self.variables:
                    raise ConfigError(f"trading needs variable {needed} in the ensemble set")
            # imported here: trading loads the ensemble engine, which the
            # other users of this module (``evaluate``) do not need
            from .trading import STRATEGIES

            for strategy in self.strategies:
                if strategy not in STRATEGIES:
                    raise ConfigError(f"unknown strategy {strategy!r}")
        if self.m_bins < 2:
            raise ConfigError("m_bins must be at least 2")
        if self.m_bins * self.evaluation_days >= 2 ** 63:
            raise ConfigError(f"m_bins {self.m_bins} is too large for the int64 reliability "
                              f"index of {self.evaluation_days} days")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if "hist" in self.methods and self.inner_window is not None:
            need = _fit_rows(self.variables)
            if self.inner_window < need:
                raise ConfigError(f"inner_window {self.inner_window} is too short: the hist "
                                  f"fits need at least {need} days")
        window = self.calibration_window_days
        need = self.min_calibration_window()
        short = (f"calibration_window_days {window} is too short: this configuration needs "
                 f"at least {need} days")
        inner = window // 2 if self.inner_window is None else self.inner_window
        for method, count in (("ms", self.n_splits * (window - round(self.split_ratio * window))),
                              ("hist", window - inner)):
            if method not in self.methods:
                continue
            if count < 2:  # a quantile interpolates between two members
                raise ConfigError(f"{method} ensembles need at least 2 members per (day, hour), "
                                  f"this configuration gives {count}: {short}")
            if count > MAX_MEMBERS:
                raise ConfigError(f"{method} ensembles of {count} members exceed the bound of "
                                  f"{MAX_MEMBERS} members per (day, hour)")
        if window < need:
            raise ConfigError(short)
        return self


# key -> annotation of every file key; schema_<field> keys fill ``schema``
_KEYS = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "schema"}


def parse_config_text(text):
    """Parse ``key = value`` lines into a raw string dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def config_from_raw(raw, base=None):
    """Typed ExperimentConfig from raw strings, layered over ``base``."""
    cfg = base or ExperimentConfig()
    updates = {}
    schema = dict(cfg.schema)
    for key, value in raw.items():
        if key.startswith("schema_"):
            fieldname = key[len("schema_"):]
            matched = next((f for f in (*DEFAULT_SCHEMA, *OPTIONAL_SCHEMA)
                            if f.lower() == fieldname.lower()), None)
            if matched is None:
                raise ConfigError(f"unknown schema field {fieldname!r}")
            schema[matched] = value
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            updates[key] = _parse(_KEYS[key], value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    if schema != cfg.schema:
        updates["schema"] = schema
    return replace(cfg, **updates)


def read_config(path=None, overrides=None):
    """Read a config file (or the SPLITCAST_CONFIG default) plus overrides.

    ``overrides`` is a dict of already typed values, e.g. from CLI flags;
    entries with value None are ignored.  The result is not validated, so a
    caller may layer more changes on it before calling ``validate()``.
    """
    cfg = ExperimentConfig()
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        cfg = config_from_raw(parse_config_text(text), cfg)
    if overrides:
        updates = {k: v for k, v in overrides.items() if v is not None}
        if updates:
            cfg = replace(cfg, **updates)
    return cfg


def load_config(path=None, overrides=None):
    """:func:`read_config`, validated."""
    return read_config(path, overrides).validate()


def config_echo_lines(cfg):
    """Reproducible textual echo of a config, volatile paths excluded."""
    lines = []
    for f in fields(cfg):
        if f.name in ("input_path", "output_dir", "workers"):
            continue
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "schema":
            for key in sorted(value):
                lines.append(f"schema_{key} = {value[key]}")
            continue
        if isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        elif isinstance(value, dt.date):
            text = value.isoformat()
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return lines
