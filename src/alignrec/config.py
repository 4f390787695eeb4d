"""Run configuration: defaults, ``key = value`` config files, flag overrides.

Precedence is flag > config file > built-in default. The fully resolved
configuration is echoed to the run log (stderr) before any work starts and
written next to the run outputs so evaluation commands can reuse it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .errors import ConfigError
from .model import HyperParams

# Smallest value each run count and the seed accept; the model's own counts
# are checked by `HyperParams`.
_MINIMUM = {"seed": 0, "kcore": 0, "batch_size": 1, "max_epochs": 0,
            "patience": 0}


@dataclass(frozen=True)
class RunConfig(HyperParams):
    """The model's `HyperParams` plus the paths and settings of one run."""

    # paths
    interactions: str | None = None
    visual: str | None = None
    text: str | None = None
    out: str | None = None
    checkpoint: str | None = None
    # reproducibility
    seed: int = 0
    # splitting / filtering
    kcore: int = 0
    # optimization
    batch_size: int = 2048
    max_epochs: int = 1000
    base_lr: float = 0.001
    patience: int = 20
    # evaluation
    eval_ks: tuple[int, ...] = (10, 20)

    def __post_init__(self):
        super().__post_init__()
        for name, minimum in _MINIMUM.items():
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, "
                                  f"got {getattr(self, name)}")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not self.eval_ks or min(self.eval_ks) < 1 \
                or len(set(self.eval_ks)) != len(self.eval_ks):
            raise ConfigError(f"eval_ks must be non-empty distinct cutoffs >= 1, "
                              f"got {format_value(self.eval_ks)}")

    def lines(self) -> list[str]:
        return [f"{f.name} = {format_value(getattr(self, f.name))}"
                for f in fields(self)]


def format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, str) and (parse_value(value) != value or "#" in value):
        return f'"{value}"'  # a path such as "123" or "r#1" must read back as text
    return str(value)


def _parse_scalar(text: str):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low == "none":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("\"'")


def parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_scalar(part.strip()) for part in inner.split(","))
    return _parse_scalar(text)


# `key = "value"`: a value that opens with a double quote runs to the last
# double quote of its line, so a `#` inside it is text, not a comment.
_QUOTED = re.compile(r'([^#=]*=\s*".*")(.*)')


def parse_config_file(path) -> dict:
    values = {}
    known = {f.name for f in fields(RunConfig)}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = list(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8: {err.reason}") from None
    for lineno, line in enumerate(lines, start=1):
        quoted = _QUOTED.match(line)
        stripped = (quoted[1] + quoted[2].split("#", 1)[0] if quoted
                    else line.split("#", 1)[0]).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = parse_value(raw)
    return values


def resolve_config(config_path: str | None, flag_values: dict) -> RunConfig:
    """Layer config-file entries over defaults, then the given flags on top;
    every value is checked against its field type, then `RunConfig` checks
    its ranges."""
    values = parse_config_file(config_path) if config_path is not None else {}
    values.update(flag_values)
    types = {f.name: f.type for f in fields(RunConfig)}
    for key, value in values.items():
        try:
            values[key] = _coerce(types[key], value)
        except (ValueError, OverflowError):  # float() of an int past 1e308
            raise ConfigError(f"{key} = {format_value(value)}: "
                              f"expected {types[key]}") from None
    return RunConfig(**values)


def _coerce(annotation: str, value):
    """`value` as the field type spelled `annotation`; raises ValueError when
    it is not of that type. An int passes as a float, and a list of scalars
    as a tuple."""
    if annotation.endswith(" | None"):
        return None if value is None else _coerce(annotation[:-len(" | None")], value)
    if annotation.startswith("tuple[") and annotation.endswith(", ...]"):
        if not isinstance(value, (tuple, list)):
            raise ValueError
        element = annotation[len("tuple["):-len(", ...]")]
        return tuple(_coerce(element, v) for v in value)
    if annotation == "bool" and isinstance(value, str) \
            and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if annotation == "float" and type(value) is int:
        return float(value)
    if type(value) is not {"int": int, "float": float, "bool": bool,
                           "str": str}[annotation]:
        raise ValueError
    return value

