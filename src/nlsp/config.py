"""Experiment configuration: defaults, JSON loading, validation.

Configuration files are flat JSON objects.  Unknown and duplicate keys are
rejected, and every diagnostic names the offending field and, where
recoverable, the line in the file.  Command-line flags override file
values, which override the documented defaults; both go through the same
validator of :data:`FIELDS`.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, NlspError
from .mappings import FiniteMeasureSpace, check_p
from .targets import TargetSpace, make_target

#: The one definition of each check tolerance's default.  A run overrides
#: some by name (``tolerances`` in a config file, ``--tolerance NAME=VALUE``
#: flags, or a ``run_*`` function's ``tolerances`` mapping).  ``None`` means
#: the check derives its tolerance from the objects involved (the geodesic
#: energy-equality tolerance depends on the target's curvature class).
DEFAULT_TOLERANCES: dict[str, float | None] = {
    "fubini_rel": 1e-13,
    "transport_residual": 2e-3,
    "speed_residual": 2e-3,
    "order_min": 0.9,
    "variation_residual": 1e-12,
    "counterexample_tv": 1e-12,
    "geodesic_residual": 1e-9,
    "curvature_sign": 1e-8,
    "curvature_flat": 1e-10,
    "length_equality": None,
    "speed_consistency": 5e-3,
    "skorokhod_example": 1e-3,
}


def _line_of(text: str, key: str, nth: int = 0) -> int | None:
    """Best-effort line number of the ``nth`` occurrence of ``key`` as an
    object key (a quoted name and a colon, never a string value)."""
    starts = [m.start() for m in re.finditer(
        re.escape(json.dumps(key)) + r"\s*:", text)]
    return text.count("\n", 0, starts[nth]) + 1 if nth < len(starts) else None


def _unique_keys(text: str, pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key repeated in one object.
    It sees no positions: only a key found twice in the text has a line."""
    out = {}
    for key, value in pairs:
        if key in out:
            twice = _line_of(text, key, 2) is None
            raise ConfigError(f"duplicate key {key!r}", field=key,
                              line=_line_of(text, key, 1) if twice else None)
        out[key] = value
    return out


def _require_int(value, name: str, minimum: int, line: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}",
                          field=name, line=line)
    if value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}",
                          field=name, line=line)
    return int(value)


def validate_seed(value, line: int | None = None) -> int:
    seed = _require_int(value, "seed", 0, line)
    if seed >= 2 ** 64:
        raise ConfigError(f"must fit in 64 bits, got {seed}",
                          field="seed", line=line)
    return seed


def validate_p(value, line: int | None = None) -> float:
    try:
        return check_p(value)
    except NlspError as exc:
        raise ConfigError(str(exc), field="p", line=line) from exc


def validate_grid(value, line: int | None = None) -> tuple[int, ...]:
    """A grid spec is one node count or an increasing list of node counts."""
    if isinstance(value, (int, bool)):
        return (_require_int(value, "grid", 2, line),)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(
            f"expected a node count or a non-empty list of node counts, "
            f"got {value!r}", field="grid", line=line)
    sizes = tuple(_require_int(v, "grid", 2, line) for v in value)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(
            f"node counts must be strictly increasing, got {list(sizes)}",
            field="grid", line=line)
    return sizes


def validate_tolerances(value, line: int | None = None) -> dict[str, float]:
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object of name -> value, got {value!r}",
                          field="tolerances", line=line)
    out = {}
    for name, tol in value.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(
                f"unknown tolerance {name!r}; known names: "
                f"{sorted(DEFAULT_TOLERANCES)}",
                field=f"tolerances.{name}", line=line)
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
                or not math.isfinite(tol) or tol <= 0.0:
            raise ConfigError(
                f"expected a positive finite number, got {tol!r}",
                field=f"tolerances.{name}", line=line)
        out[str(name)] = float(tol)
    return out


def target_from_config(data, line: int | None = None) -> TargetSpace:
    """Build a target space from its config form (see :func:`make_target`)."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object, got {data!r}",
                          field="target", line=line)
    try:
        return make_target(data)
    except NlspError as exc:
        raise ConfigError(str(exc), field="target", line=line) from exc


def base_space_from_config(data, line: int | None = None) -> FiniteMeasureSpace:
    """Build a finite measure space from its config form.

    Either an explicit atom list::

        {"atoms": [{"id": "x0", "weight": 0.5}, ...]}

    or a generated family::

        {"count": 4, "weight_law": "uniform" | "linear", "mass": 1.0}
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object, got {data!r}",
                          field="base", line=line)
    if "atoms" in data:
        extra = set(data) - {"atoms"}
        if extra:
            raise ConfigError(
                f"unexpected keys {sorted(extra)} next to 'atoms'",
                field="base", line=line)
        atoms = data["atoms"]
        if not isinstance(atoms, list) or not atoms:
            raise ConfigError(f"'atoms' must be a non-empty list, got {atoms!r}",
                              field="base.atoms", line=line)
        ids, weights = [], []
        for k, atom in enumerate(atoms):
            if not isinstance(atom, dict) or set(atom) != {"id", "weight"}:
                raise ConfigError(
                    f"atom #{k} must be an object with keys 'id' and "
                    f"'weight', got {atom!r}", field="base.atoms", line=line)
            if not isinstance(atom["id"], str):
                raise ConfigError(f"atom #{k} id must be a string, got "
                                  f"{atom['id']!r}", field="base.atoms",
                                  line=line)
            w = atom["weight"]
            if isinstance(w, bool) or not isinstance(w, (int, float)) \
                    or not math.isfinite(w) or w < 0.0:
                raise ConfigError(
                    f"atom #{k} weight must be a finite number >= 0, got "
                    f"{w!r}", field="base.atoms", line=line)
            ids.append(atom["id"])
            weights.append(float(w))
        try:
            return FiniteMeasureSpace(tuple(ids), tuple(weights))
        except NlspError as exc:
            raise ConfigError(str(exc), field="base.atoms", line=line) from exc
    extra = set(data) - {"count", "weight_law", "mass"}
    if extra:
        raise ConfigError(
            f"unknown keys {sorted(extra)}; expected 'atoms' or "
            f"'count'/'weight_law'/'mass'", field="base", line=line)
    if "count" not in data:
        raise ConfigError("an object with neither 'atoms' nor 'count' "
                          "describes no atoms", field="base", line=line)
    count = _require_int(data["count"], "base.count", 1, line)
    law = data.get("weight_law", "uniform")
    mass = data.get("mass", 1.0)
    if isinstance(mass, bool) or not isinstance(mass, (int, float)) \
            or not math.isfinite(mass) or mass <= 0.0:
        raise ConfigError(f"mass must be a positive finite number, got {mass!r}",
                          field="base.mass", line=line)
    if law == "uniform":
        weights = [float(mass) / count] * count
    elif law == "linear":
        total = count * (count + 1) / 2.0
        weights = [float(mass) * (j + 1) / total for j in range(count)]
    else:
        raise ConfigError(
            f"unknown weight law {law!r}; expected 'uniform' or 'linear'",
            field="base.weight_law", line=line)
    return FiniteMeasureSpace(tuple(f"x{j}" for j in range(count)),
                              tuple(weights))


def _built_then_kept(build):
    """A validator that builds the object a config form describes, to
    check it, and keeps the form itself, which the summary echoes."""
    def validate(value, line: int | None = None):
        build(value, line)
        return value
    return validate


def _validate_output(value, line: int | None = None) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"expected a non-empty string, got {value!r}",
                          field="output", line=line)
    return value


@dataclass
class ExperimentConfig:
    """Resolved experiment settings (defaults < file < flags)."""

    seed: int = 7
    target: dict | None = None
    base: dict | None = None
    p: float | None = None
    grid: tuple[int, ...] | None = None
    trials: int | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    output: str = "."

    def target_space(self) -> TargetSpace | None:
        return None if self.target is None else target_from_config(self.target)

    def base_space(self) -> FiniteMeasureSpace | None:
        return None if self.base is None else base_space_from_config(self.base)

    def normalized(self) -> dict:
        """JSON-able echo of the settings that can influence results.

        The output location is excluded: it never changes a computed
        number, so two runs that differ only there must produce identical
        summaries.
        """
        out: dict = {"seed": int(self.seed)}
        if self.target is not None:
            out["target"] = self.target
        if self.base is not None:
            out["base"] = self.base
        if self.p is not None:
            out["p"] = "inf" if math.isinf(self.p) else float(self.p)
        if self.grid is not None:
            out["grid"] = [int(n) for n in self.grid]
        if self.trials is not None:
            out["trials"] = int(self.trials)
        if self.tolerances:
            out["tolerances"] = {k: float(v)
                                 for k, v in sorted(self.tolerances.items())}
        return out


#: The validator of each :class:`ExperimentConfig` field, in field order:
#: ``validator(value, line)`` returns the field's value or raises
#: :class:`~nlsp.errors.ConfigError`.  File values and flags alike pass
#: through it, and a key not in it is refused.
FIELDS = {
    "seed": validate_seed,
    "target": _built_then_kept(target_from_config),
    "base": _built_then_kept(base_space_from_config),
    "p": validate_p,
    "grid": validate_grid,
    "trials": lambda value, line=None: _require_int(value, "trials", 1, line),
    "tolerances": validate_tolerances,
    "output": _validate_output,
}


def _validated(key: str, value, line: int | None = None):
    if key not in FIELDS:
        raise ConfigError(f"unknown key {key!r}; allowed keys: {list(FIELDS)}",
                          field=key, line=line)
    return FIELDS[key](value, line)


def load_config_file(path) -> dict:
    """Read and validate a JSON config file into keyword form."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text, object_pairs_hook=functools.partial(
            _unique_keys, text))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ConfigError(
            f"top-level value must be an object, got {type(data).__name__}")
    return {key: _validated(key, value, _line_of(text, key))
            for key, value in data.items()}


def build_config(config_path=None, **flag_overrides) -> ExperimentConfig:
    """Resolve an :class:`ExperimentConfig` from a file plus flag overrides.

    Flags are validated like file values.  ``flag_overrides`` entries with
    value ``None`` are ignored; tolerance overrides merge on top of (rather
    than replace) file-level tolerances.
    """
    settings = {} if config_path is None else load_config_file(config_path)
    for key, value in flag_overrides.items():
        if value is not None:
            value = _validated(key, value)
            settings[key] = ({**settings.get("tolerances", {}), **value}
                             if key == "tolerances" else value)
    return ExperimentConfig(**settings)
