"""Experiment configuration: strict YAML parsing, validation, expansion.

A config file describes one named experiment: a base simulation setup
plus optional sweep axes (lists). Unknown keys are rejected; validation
reports every violated constraint at once. `canonical_yaml` emits a
fully-populated normal form that re-parses to an identical spec.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

import yaml

from .placement import STRATEGY_IDS, HoppingParams
from .simulation import GRAPH_FAMILIES, SimulationConfig

# Named failure settings: (node failure probability, link failure probability).
FAILURE_SETTINGS = {
    "none": (0.0, 0.0),
    "low": (0.1, 0.02),
    "mild": (0.15, 0.05),
    "moderate": (0.20, 0.1),
    "high": (0.3, 0.2),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepAxes:
    """Optional per-axis value lists; an absent axis uses the base value."""

    strategy: Optional[tuple[str, ...]] = None
    graph_param: Optional[tuple[float, ...]] = None
    n: Optional[tuple[int, ...]] = None
    adversary_fraction: Optional[tuple[float, ...]] = None
    epsilon: Optional[tuple[float, ...]] = None
    t_attack: Optional[tuple[int, ...]] = None
    classes_per_node: Optional[tuple[int, ...]] = None
    failure_setting: Optional[tuple[str, ...]] = None
    seed: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: base simulation parameters plus sweep axes."""

    name: str
    output_dir: str
    strategy: str = "random"
    epochs: int = 60
    t_attack: int = 15
    alpha: float = 0.05
    local_iters: int = 1
    epsilon: float = 250.0
    epsilon_scale: float = 0.002
    adversary_fraction: float = 0.2
    adversary_count: Optional[int] = None
    tracker_mixing: str = "in_self"
    graph_family: str = "dg"
    graph_n: int = 25
    graph_param: float = 0.2
    classes: int = 10
    feature_dim: int = 20
    samples_per_node: int = 20
    classes_per_node: int = 10
    spread: float = 0.3
    test_samples: int = 200
    failure_setting: str = "none"
    hopping: HoppingParams = field(default_factory=HoppingParams)
    sweep: SweepAxes = field(default_factory=SweepAxes)

    def axis(self, name: str) -> tuple:
        """Values for one sweep axis (base value when the axis is absent)."""
        values = getattr(self.sweep, name)
        if values is not None:
            return values
        if name == "seed":
            return (1,)
        if name == "n":
            return (self.graph_n,)
        return (getattr(self, name),)

    def cells(self) -> list["SweepCell"]:
        """Expand the sweep grid in deterministic order (seed innermost)."""
        out = []
        for (param, n, frac, strategy, eps, t_attack, k, fail,
             seed) in itertools.product(
                self.axis("graph_param"), self.axis("n"),
                self.axis("adversary_fraction"), self.axis("strategy"),
                self.axis("epsilon"), self.axis("t_attack"),
                self.axis("classes_per_node"), self.axis("failure_setting"),
                self.axis("seed")):
            n_advs = (self.adversary_count if self.adversary_count is not None
                      else max(1, round(frac * n)))
            p_node, p_link = FAILURE_SETTINGS[fail]
            cfg = SimulationConfig(
                graph_family=self.graph_family, graph_param=param, n=n,
                strategy=strategy, n_advs=n_advs, epochs=self.epochs,
                t_attack=t_attack, epsilon=eps,
                epsilon_scale=self.epsilon_scale, alpha=self.alpha,
                local_iters=self.local_iters, classes=self.classes,
                feature_dim=self.feature_dim,
                samples_per_node=self.samples_per_node, classes_per_node=k,
                spread=self.spread, test_samples=self.test_samples,
                p_node_fail=p_node, p_link_fail=p_link, hopping=self.hopping,
                tracker_mixing=self.tracker_mixing, seed=seed)
            out.append(SweepCell(cfg=cfg, failure_setting=fail))
        return out


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


_TOP_KEYS = {"name", "output_dir", "strategy", "epochs", "t_attack", "alpha",
             "local_iters", "epsilon", "epsilon_scale", "adversary_fraction",
             "adversary_count", "tracker_mixing", "seeds", "graph", "data",
             "failures", "hopping", "sweep"}
_GRAPH_KEYS = {"family", "n", "param"}
_DATA_KEYS = {"classes", "feature_dim", "samples_per_node",
              "classes_per_node", "spread", "test_samples"}
_HOPPING_KEYS = {"alpha0", "alpha1", "alpha2", "decay"}
_SWEEP_KEYS = {f.name for f in fields(SweepAxes)}


def _reject_unknown(section: dict, allowed: set[str], where: str,
                    problems: list[str]) -> None:
    for key in section:
        if key not in allowed:
            problems.append(f"unknown key {key!r} in {where}")


def _as_list(value: Any) -> list:
    return value if isinstance(value, list) else [value]


_INT_FIELDS = {"epochs", "t_attack", "local_iters", "adversary_count",
               "classes", "feature_dim", "samples_per_node",
               "classes_per_node", "test_samples", "seed", "seeds", "n"}
_FLOAT_FIELDS = {"alpha", "epsilon", "epsilon_scale", "adversary_fraction",
                 "graph_param", "spread", "failures.p_node", "failures.p_link"}


def _coerce(key: str, value: Any, problems: list[str]) -> Any:
    """Coerce a scalar config value to its field type, recording failures."""
    base = key
    try:
        if base in _INT_FIELDS:
            if isinstance(value, bool) or (isinstance(value, float)
                                           and value != int(value)):
                raise ValueError(value)
            return int(value)
        if base in _FLOAT_FIELDS:
            return float(value)
        return str(value)
    except (TypeError, ValueError):
        kind = "an integer" if base in _INT_FIELDS else "a number"
        problems.append(f"{key}: expected {kind}, got {value!r}")
        return None


def parse_config_data(raw: Any, *, default_name: str = "experiment") -> ExperimentSpec:
    """Build and validate an ExperimentSpec from parsed YAML data."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    problems: list[str] = []
    _reject_unknown(raw, _TOP_KEYS, "top level", problems)

    graph = raw.get("graph", {}) or {}
    data = raw.get("data", {}) or {}
    failures = raw.get("failures", {}) or {}
    hopping = raw.get("hopping", {}) or {}
    sweep = raw.get("sweep", {}) or {}
    for section, allowed, where in ((graph, _GRAPH_KEYS, "graph"),
                                    (data, _DATA_KEYS, "data"),
                                    (hopping, _HOPPING_KEYS, "hopping"),
                                    (sweep, _SWEEP_KEYS, "sweep")):
        if not isinstance(section, dict):
            problems.append(f"section {where!r} must be a mapping")
            continue
        _reject_unknown(section, allowed, where, problems)

    failure_setting = "none"
    if failures:
        if isinstance(failures, str):
            failure_setting = failures
        elif isinstance(failures, dict):
            _reject_unknown(failures, {"setting", "p_node", "p_link"},
                            "failures", problems)
            if "setting" in failures:
                failure_setting = failures["setting"]
            elif "p_node" in failures or "p_link" in failures:
                pair = tuple(_coerce(f"failures.{key}",
                                     failures.get(key, 0.0), problems)
                             for key in ("p_node", "p_link"))
                named = {v: k for k, v in FAILURE_SETTINGS.items()}
                if pair in named:
                    failure_setting = named[pair]
                elif None not in pair:  # a bad value is reported already
                    problems.append(
                        f"failures.p_node/p_link {pair} do not match a named "
                        f"setting; use one of {sorted(FAILURE_SETTINGS)}")
        else:
            problems.append("section 'failures' must be a mapping or a name")
    if failure_setting not in FAILURE_SETTINGS:
        problems.append(f"failures: unknown setting {failure_setting!r}; "
                        f"expected one of {sorted(FAILURE_SETTINGS)}")
        failure_setting = "none"

    sweep_kwargs: dict[str, tuple] = {}
    if isinstance(sweep, dict):
        for key, value in sweep.items():
            if key in _SWEEP_KEYS:
                coerced = [_coerce(key, v, problems) for v in _as_list(value)]
                sweep_kwargs[key] = tuple(coerced)
    if "seeds" in raw:
        count = _coerce("seeds", raw["seeds"], problems)
        if count is None:
            pass
        elif count < 1:
            problems.append("seeds must be a positive count")
        elif "seed" in sweep_kwargs:
            problems.append("give either `seeds: <count>` or `sweep.seed`, "
                            "not both")
        else:
            sweep_kwargs["seed"] = tuple(range(1, count + 1))

    spec_kwargs: dict[str, Any] = dict(
        name=str(raw.get("name", default_name)),
        output_dir=str(raw.get("output_dir", f"results/{raw.get('name', default_name)}")),
    )
    for key in ("strategy", "epochs", "t_attack", "alpha", "local_iters",
                "epsilon", "epsilon_scale", "adversary_fraction",
                "adversary_count", "tracker_mixing"):
        if key in raw:
            spec_kwargs[key] = _coerce(key, raw[key], problems)
    if isinstance(graph, dict):
        if "family" in graph:
            spec_kwargs["graph_family"] = str(graph["family"])
        if "n" in graph:
            spec_kwargs["graph_n"] = _coerce("n", graph["n"], problems)
        if "param" in graph:
            spec_kwargs["graph_param"] = _coerce("graph_param",
                                                 graph["param"], problems)
    if isinstance(data, dict):
        for key in _DATA_KEYS & set(data):
            spec_kwargs[key] = _coerce(key, data[key], problems)
        if "classes" in data and "classes_per_node" not in data:
            # IID by default: every class available at every node
            spec_kwargs["classes_per_node"] = spec_kwargs.get("classes")
    spec_kwargs["failure_setting"] = failure_setting
    if isinstance(hopping, dict):
        try:
            spec_kwargs["hopping"] = HoppingParams(
                **{k: float(v) for k, v in hopping.items()
                   if k in _HOPPING_KEYS})
        except (TypeError, ValueError) as exc:
            problems.append(f"hopping: {exc}")

    if problems:
        # coercion or structure failures make semantic validation moot
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    try:
        spec = ExperimentSpec(sweep=SweepAxes(**sweep_kwargs), **spec_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config:\n  - {exc}") from exc
    _validate(spec, problems)
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))
    return spec


def _validate(spec: ExperimentSpec, problems: list[str]) -> None:
    for strategy in spec.axis("strategy"):
        if strategy not in STRATEGY_IDS:
            problems.append(f"strategy: unknown id {strategy!r}; expected "
                            f"one of {STRATEGY_IDS}")
    if spec.graph_family not in GRAPH_FAMILIES:
        problems.append(f"graph.family: unknown family "
                        f"{spec.graph_family!r}; expected {GRAPH_FAMILIES}")
    for fail in spec.axis("failure_setting"):
        if fail not in FAILURE_SETTINGS:
            problems.append(f"sweep.failure_setting: unknown name {fail!r}")
    for k in spec.axis("classes_per_node"):
        if not (1 <= k <= spec.classes):
            problems.append(f"data.classes_per_node: {k} outside "
                            f"1..{spec.classes} (classes)")
    for t in spec.axis("t_attack"):
        if not (0 <= t <= spec.epochs):
            problems.append(f"t_attack: {t} outside 0..{spec.epochs} (epochs)")
    for n in spec.axis("n"):
        if n < 2:
            problems.append(f"graph.n: {n} must be at least 2")
        if spec.adversary_count is not None:
            if not (1 <= spec.adversary_count < n):
                problems.append(f"adversary_count: {spec.adversary_count} "
                                f"outside 1..{n - 1}")
        else:
            for frac in spec.axis("adversary_fraction"):
                if not (0.0 < frac < 1.0):
                    problems.append(f"adversary_fraction: {frac} outside (0, 1)")
                elif not (1 <= max(1, round(frac * n)) < n):
                    problems.append(f"adversary_fraction {frac} leaves no "
                                    f"honest node at n={n}")
    for eps in spec.axis("epsilon"):
        if eps < 0:
            problems.append(f"epsilon: {eps} must be non-negative")
    if spec.alpha <= 0:
        problems.append("alpha must be positive")
    if spec.local_iters < 1:
        problems.append("local_iters must be >= 1")
    if spec.epochs < 1:
        problems.append("epochs must be >= 1")
    if spec.tracker_mixing not in ("in_self", "literal_out"):
        problems.append(f"tracker_mixing: unknown mode {spec.tracker_mixing!r}")
    if spec.graph_family == "pa":
        for param, n in itertools.product(spec.axis("graph_param"),
                                          spec.axis("n")):
            if not (1 <= int(param) < n):
                problems.append(f"graph.param: pa initial size {param} "
                                f"outside 1..{n - 1}")
    # expansion itself revalidates each cell via SimulationConfig
    if not problems:
        try:
            spec.cells()
        except (ValueError, KeyError) as exc:
            problems.append(str(exc))


def parse_config(path) -> ExperimentSpec:
    """Parse and validate a YAML experiment config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"could not read {path}: {exc}") from exc
    return parse_config_data(raw, default_name=Path(path).stem)


def canonical_yaml(spec: ExperimentSpec) -> str:
    """Fully-populated canonical form; re-parsing yields an identical spec."""
    doc: dict[str, Any] = {
        "name": spec.name,
        "output_dir": spec.output_dir,
        "strategy": spec.strategy,
        "epochs": spec.epochs,
        "t_attack": spec.t_attack,
        "alpha": spec.alpha,
        "local_iters": spec.local_iters,
        "epsilon": spec.epsilon,
        "epsilon_scale": spec.epsilon_scale,
        "adversary_fraction": spec.adversary_fraction,
        "tracker_mixing": spec.tracker_mixing,
        "graph": {"family": spec.graph_family, "n": spec.graph_n,
                  "param": spec.graph_param},
        "data": {"classes": spec.classes, "feature_dim": spec.feature_dim,
                 "samples_per_node": spec.samples_per_node,
                 "classes_per_node": spec.classes_per_node,
                 "spread": spec.spread, "test_samples": spec.test_samples},
        "failures": {"setting": spec.failure_setting},
        "hopping": {"alpha0": spec.hopping.alpha0,
                    "alpha1": spec.hopping.alpha1,
                    "alpha2": spec.hopping.alpha2,
                    "decay": spec.hopping.decay},
    }
    if spec.adversary_count is not None:
        doc["adversary_count"] = spec.adversary_count
    sweep = {name: list(values) for name in _SWEEP_KEYS
             if (values := getattr(spec.sweep, name)) is not None}
    if sweep:
        doc["sweep"] = sweep
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)
