"""Experiment configuration: strict YAML parsing, validation, expansion.

A config file describes one named experiment: a base simulation setup
plus optional sweep axes (lists). `PARAMS` declares each parameter once;
the YAML schema, the types, `ExperimentSpec`, `SweepAxes`, the sweep grid
and `canonical_yaml` (a fully-populated normal form that re-parses to an
identical spec) follow from it. Unknown keys are rejected; validation
reports every violated constraint at once, each by its YAML path.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, field, fields, make_dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, NamedTuple, Optional, get_type_hints

import yaml

from .placement import STRATEGY_IDS, HoppingParams
from .simulation import SimulationConfig

# Named failure settings: (node failure probability, link failure probability).
FAILURE_SETTINGS = {"none": (0.0, 0.0), "low": (0.1, 0.02), "mild": (0.15, 0.05),
                    "moderate": (0.20, 0.1), "high": (0.3, 0.2)}


class ConfigError(ValueError):
    pass


class Param(NamedTuple):
    """A YAML path, the `ExperimentSpec` field it sets (`hopping.x` sets x
    of `hopping`), its sweep axis, and a kind and default only where
    SimulationConfig has no field named as the axis, or else as the field."""

    path: str
    field: str
    axis: Optional[str] = None
    kind: Optional[type] = None
    default: Any = MISSING


PARAMS = (
    Param("name", "name", kind=str),
    Param("output_dir", "output_dir", kind=str),
    # the sweep axes in grid order; the seed axis comes last
    Param("graph.param", "graph_param", "graph_param"),
    Param("graph.n", "graph_n", "n"),
    Param("adversary_fraction", "adversary_fraction", "adversary_fraction",
          float, 0.2),
    Param("strategy", "strategy", "strategy"),
    Param("epsilon", "epsilon", "epsilon"),
    Param("t_attack", "t_attack", "t_attack"),
    Param("data.classes_per_node", "classes_per_node", "classes_per_node"),
    Param("failures.setting", "failure_setting", "failure_setting", str,
          "none"),
    # shared by every cell
    Param("epochs", "epochs"),
    Param("alpha", "alpha"),
    Param("local_iters", "local_iters"),
    Param("epsilon_scale", "epsilon_scale"),
    Param("adversary_count", "adversary_count", kind=int, default=None),
    Param("tracker_mixing", "tracker_mixing"),
    Param("graph.family", "graph_family"),
    Param("data.classes", "classes"),
    Param("data.feature_dim", "feature_dim"),
    Param("data.samples_per_node", "samples_per_node"),
    Param("data.spread", "spread"),
    Param("data.test_samples", "test_samples"),
    Param("hopping.alpha0", "hopping.alpha0"),
    Param("hopping.alpha1", "hopping.alpha1"),
    Param("hopping.alpha2", "hopping.alpha2"),
    Param("hopping.decay", "hopping.decay"),
)

AXES = tuple(p.axis for p in PARAMS if p.axis) + ("seed",)
_AXIS_FIELDS = {p.axis: p.field for p in PARAMS if p.axis}
_SIM = {f.name: f for f in fields(SimulationConfig)}
# the value type of each SimulationConfig field, axis and PARAMS field
_KINDS = {**get_type_hints(SimulationConfig),
          **{f"hopping.{name}": kind for name, kind
             in get_type_hints(HoppingParams).items()},
          **{p.field: p.kind for p in PARAMS if p.kind}}
# YAML paths by axis, or else by field (SimulationConfig's name for both)
_PATHS = {p.axis or p.field: p.path for p in PARAMS}
_SECTIONS = {"sweep", *(p.path.split(".")[0] for p in PARAMS if "." in p.path)}
# the kind of each YAML path's value, or of each value of a sweep axis
_PATH_KINDS = {**{p.path: _KINDS[p.axis or p.field] for p in PARAMS},
               **{f"sweep.{axis}": _KINDS[axis] for axis in AXES},
               "seeds": int, "failures.p_node": float, "failures.p_link": float}

# Optional per-axis value lists; an absent axis uses the base value.
SweepAxes = make_dataclass(
    "SweepAxes", [(axis, Optional[tuple], None) for axis in AXES],
    frozen=True, namespace={"__module__": __name__})


def _spec_field(p: Param) -> tuple:
    """p's ExperimentSpec field (`hopping.x` gives `hopping`), typed and
    defaulted by p or by SimulationConfig."""
    name = p.field.partition(".")[0]
    if p.kind:
        return name, p.kind, field(default=p.default)
    f = _SIM[p.axis or name]
    return name, f.type, field(default=f.default,
                               default_factory=f.default_factory)


_SPEC_FIELDS = [*{f[0]: f for f in map(_spec_field, PARAMS)}.values(),
                ("sweep", "SweepAxes", field(default_factory=SweepAxes))]
# the ExperimentSpec fields every cell takes as they are
_SHARED = [f[0] for f in _SPEC_FIELDS if f[0] in _SIM and f[0] not in AXES]


class ExperimentSpec(make_dataclass("_SpecFields", _SPEC_FIELDS, frozen=True)):
    """A named experiment: base simulation parameters plus sweep axes, the
    fields `PARAMS` names."""

    def axis(self, name: str) -> tuple:
        """Values for one sweep axis (base value when the axis is absent)."""
        values = getattr(self.sweep, name)
        if values is not None:
            return values
        if name in _AXIS_FIELDS:
            return (getattr(self, _AXIS_FIELDS[name]),)
        return (_SIM[name].default,)  # the seed

    def _grid(self):
        """Each cell's SimulationConfig arguments and failure setting."""
        shared = {name: getattr(self, name) for name in _SHARED}
        for values in itertools.product(*map(self.axis, AXES)):
            point = dict(zip(AXES, values))
            frac = point.pop("adversary_fraction")
            fail = point.pop("failure_setting")
            n_advs = (self.adversary_count if self.adversary_count is not None
                      else max(1, round(frac * point["n"])))
            p_node, p_link = FAILURE_SETTINGS[fail]
            yield dict(shared, **point, n_advs=n_advs, p_node_fail=p_node,
                       p_link_fail=p_link), fail

    def cells(self) -> list["SweepCell"]:
        """Expand the sweep grid in deterministic order (seed innermost)."""
        return [SweepCell(cfg=SimulationConfig(**kwargs), failure_setting=fail)
                for kwargs, fail in self._grid()]


@dataclass(frozen=True)
class SweepCell:
    cfg: SimulationConfig
    failure_setting: str

    @property
    def run_id(self) -> str:
        c = self.cfg
        return (f"{c.strategy}_{c.graph_family}{c.graph_param:g}_n{c.n}"
                f"_adv{c.n_advs}_eps{c.epsilon:g}_t{c.t_attack}"
                f"_k{c.classes_per_node}_f{self.failure_setting}_s{c.seed}")

    @property
    def params_label(self) -> str:
        c = self.cfg
        return (f"param={c.graph_param:g};eps={c.epsilon:g};t={c.t_attack};"
                f"k={c.classes_per_node};fail={self.failure_setting}")


def coerce(key: str, value: Any, kind: type) -> Any:
    """value as kind (int, float or str), or a ConfigError naming key: an
    integral non-bool int, or a finite float (YAML 1.1 reads `1e-3` as a
    string, so a number may come as one)."""
    if isinstance(value, bool):
        pass
    elif kind is not float and isinstance(value, kind):  # a str or an int
        return value
    elif kind is not str and isinstance(value, (int, float, str)):
        try:
            number = float(value)
        except (ValueError, OverflowError):  # not a number, or too large
            number = math.nan
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    expected = {int: "an integer", float: "a finite number", str: "a string"}
    raise ConfigError(f"{key}: expected {expected[kind]}, got {value!r}")


def parse_config_data(raw: Any, *, default_name: str = "experiment") -> ExperimentSpec:
    """Build and validate an ExperimentSpec from parsed YAML data."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    if isinstance(raw.get("failures"), str):
        raw = {**raw, "failures": {"setting": raw["failures"]}}
    problems: list[str] = []
    flat = {}  # the values by YAML path
    for key, value in raw.items():
        if key not in _SECTIONS:
            flat[key] = value
        elif isinstance(value or {}, dict):
            flat.update((f"{key}.{k}", v) for k, v in (value or {}).items())
        else:
            problems.append(f"section {key!r} must be a mapping"
                            + (" or a name" if key == "failures" else ""))
    values = {}  # coerced by path; a sweep axis's as a tuple
    for path, value in flat.items():
        axis = path.startswith("sweep.")
        try:
            if path not in _PATH_KINDS:
                raise ConfigError(f"unknown key {path!r}")
            items = [coerce(path, v, _PATH_KINDS[path]) for v in (
                value if axis and isinstance(value, list) else [value])]
        except ConfigError as exc:
            problems.append(str(exc))
        else:
            values[path] = tuple(items) if axis else items[0]
    kwargs = {"name": default_name}
    kwargs.update((p.field, values[p.path]) for p in PARAMS if p.path in values)
    kwargs.setdefault("output_dir", f"results/{kwargs['name']}")
    if "classes" in kwargs and "classes_per_node" not in kwargs:
        # IID by default: every class available at every node
        kwargs["classes_per_node"] = kwargs["classes"]
    given = {"failures.p_node", "failures.p_link"} & flat.keys()
    if given and "failures.setting" not in flat and given <= values.keys():
        pair = (values.get("failures.p_node", 0.0),
                values.get("failures.p_link", 0.0))
        named = {v: k for k, v in FAILURE_SETTINGS.items()}
        if pair in named:
            kwargs["failure_setting"] = named[pair]
        else:
            problems.append(f"failures.p_node/p_link {pair} match no named "
                            f"setting of {sorted(FAILURE_SETTINGS)}")
    sweep = {path[6:]: v for path, v in values.items() if path[:6] == "sweep."}
    if "seeds" in values and (values["seeds"] < 1 or "seed" in sweep):
        problems.append(f"seeds: {values['seeds']} must be a positive count, "
                        "given without `sweep.seed`")
    elif "seeds" in values:
        sweep["seed"] = tuple(range(1, values["seeds"] + 1))
    hopping = {f.partition(".")[2]: kwargs.pop(f) for f in list(kwargs)
               if f.startswith("hopping.")}
    if not problems:
        try:
            spec = ExperimentSpec(hopping=HoppingParams(**hopping),
                                  sweep=SweepAxes(**sweep), **kwargs)
        except ValueError as exc:
            problems += [f"hopping.{line}" for line in str(exc).splitlines()]
        else:
            _validate(spec, problems)
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    return spec


def _path(spec: ExperimentSpec, name: str) -> str:
    """The YAML path that sets axis or field `name` of spec's cells."""
    if name == "n_advs":
        name = ("adversary_count" if spec.adversary_count is not None
                else "adversary_fraction")
    if name in AXES and getattr(spec.sweep, name) is not None:
        return f"sweep.{name}"
    return _PATHS.get(name, name)


def _validate(spec: ExperimentSpec, problems: list[str]) -> None:
    """Spec-wide checks, then (if they pass) SimulationConfig's per cell."""
    for axis, known in (("strategy", STRATEGY_IDS),
                        ("failure_setting", tuple(FAILURE_SETTINGS))):
        problems += [f"{_path(spec, axis)}: unknown {value!r}; expected one "
                     f"of {known}" for value in spec.axis(axis)
                     if value not in known]
    if spec.adversary_count is not None and spec.adversary_count < 1:
        problems.append(f"adversary_count: {spec.adversary_count} is below 1")
    problems += [f"{_path(spec, 'adversary_fraction')}: {frac} outside (0, 1)"
                 for frac in spec.axis("adversary_fraction")
                 if spec.adversary_count is None and not 0 < frac < 1]
    if not problems:
        # run_ids name the cells' files; the axes at whose positions two
        # cells of one run_id differ are those whose values collide
        firsts, clashes = {}, {}  # run_id: axis positions; path: run_id
        positions = itertools.product(*(range(len(spec.axis(axis)))
                                        for axis in AXES))
        for position, (kwargs, fail) in zip(positions, spec._grid()):
            try:
                run_id = SweepCell(SimulationConfig(**kwargs), fail).run_id
            except ValueError as exc:
                for line in str(exc).splitlines():
                    name, _, text = line.partition(": ")
                    problems.append(f"{_path(spec, name)}: {text}")
                continue
            first = firsts.setdefault(run_id, position)
            for axis, i, j in zip(AXES, first, position):
                if i != j:
                    clashes.setdefault(_path(spec, axis), run_id)
        problems[:] = dict.fromkeys(problems)  # one line per distinct fault
        problems += [f"{path}: cells share run_id {run_id!r}, so their "
                     "outputs would overwrite each other"
                     for path, run_id in clashes.items()]


def parse_config(path) -> ExperimentSpec:
    """Parse and validate a YAML experiment config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"could not read {path}: {exc}") from exc
    return parse_config_data(raw, default_name=Path(path).stem)


def canonical_yaml(spec: ExperimentSpec) -> str:
    """Fully-populated canonical form; re-parsing yields an identical spec."""
    doc: dict[str, Any] = {}
    paths = [(p.path, attrgetter(p.field)(spec)) for p in PARAMS]
    paths += [(f"sweep.{axis}", list(values)) for axis in AXES
              if (values := getattr(spec.sweep, axis)) is not None]
    for path, value in paths:
        if value is not None:  # adversary_count unset
            section, _, key = path.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[key] = value
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)
