"""Span tracing of dflsim from the outside, and the per-layer metrics.

`Tracer.install` replaces every public function of each layer module
with a timing wrapper, at every module that looks the name up: because
of `from .x import y`, `dflsim.simulation.loss_and_grad` is wrapped as
well as `dflsim.learning.loss_and_grad`. A few public methods on the
engine's path are wrapped on their class. Spans (name, start, end,
parent, raised) are kept in flat arrays in memory and only analysed or
written after the timed region.

Nothing under `src/` knows about this: a function the program stops
calling simply records no span, and every metric derived from it reads
zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

# The layers are the dflsim modules. `cli` only adds import cost, and
# `plots` is on no workload's path.
LAYERS = ("graphs", "placement", "learning", "simulation", "metrics",
          "theory", "config", "sweep")

# Public methods on the measured paths, as (module, class, method).
METHODS = (("simulation", "Simulation", "__init__"),
           ("simulation", "Simulation", "run"),
           ("graphs", "GraphFamily", "generate"),
           ("config", "ExperimentSpec", "cells"))

GEN_FUNCS = ("graphs.gen_erdos_renyi", "graphs.gen_directed_geometric",
             "graphs.gen_preferential_attachment")
STRATEGIES = ("random", "eigen", "degree", "maxspan", "maxspan-hop")


def _place_strategy(args, kwargs):
    return kwargs["strategy"] if "strategy" in kwargs else args[1]


# Span tags: which argument distinguishes calls of one function.
TAGGERS = {"placement.place": _place_strategy}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.tags: dict[int, str] = {}
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._replaced: list[tuple] = []  # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """A wrapper of fn that records one span per call."""
        nid = self._name_id(name)
        tagger = TAGGERS.get(name)
        names, parents, starts, ends, raised = (
            self.name, self.parent, self.start, self.end, self.raised)
        stack, tags, clock = self._stack, self.tags, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            raised.append(0)
            ends.append(0.0)
            if tagger is not None:
                tags[idx] = tagger(args, kwargs)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever they are looked up."""
        for layer in LAYERS:
            module = importlib.import_module(f"dflsim.{layer}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("dflsim.")):
                    continue
                key = id(value)
                if key not in self._wrappers:
                    owner = value.__module__.rsplit(".", 1)[1]
                    self._wrappers[key] = self.wrap(
                        value, f"{owner}.{value.__name__}")
                self._replace(module, attr, self._wrappers[key])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"dflsim.{layer}"), cls_name)
            self._replace(cls, method, self.wrap(
                vars(cls)[method], f"{layer}.{cls_name}.{method}"))

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._replaced.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every function `install` wrapped."""
        while self._replaced:
            setattr(*self._replaced.pop())

    def spans(self) -> list[tuple]:
        """(name, start, end, parent, raised, tag) for every span."""
        return [(self.names[self.name[i]], self.start[i], self.end[i],
                 self.parent[i], self.raised[i], self.tags.get(i))
                for i in range(len(self.start))]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\traised\ttag\n")
            for span in self.spans():
                fh.write("\t".join("" if v is None else str(v)
                                   for v in span) + "\n")

    def draws_per_generation(self) -> list[int]:
        """Strong-connectivity tests made inside each generator call, in
        call order: the rejection draws each accepted graph took."""
        gen_ids = {self._ids[n] for n in GEN_FUNCS if n in self._ids}
        test_id = self._ids.get("graphs.is_strongly_connected")
        order: list[int] = []
        counts: dict[int, int] = {}
        for i in range(len(self.start)):
            nid, par = self.name[i], self.parent[i]
            if nid in gen_ids and (par < 0 or self.name[par] not in gen_ids):
                order.append(i)
                counts[i] = 0
            elif nid == test_id and par in counts:
                counts[par] += 1
        return [counts[i] for i in order]

    def layer_metrics(self, *, epochs_per_run: int = 0,
                      trials_per_scenario: int = 0) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        Totals are sums over the traced repetition. A layer the workload
        does not reach reads zero.
        """
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        learning_child = [0.0] * n  # maximal learning spans below a run
        in_learning = [False] * n
        run_of = [-1] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                in_learning[i] = in_learning[p] or names[p].startswith(
                    "learning.")
                run_of[i] = run_of[p]
            if names[i] == "simulation.Simulation.run":
                run_of[i] = i
            elif (names[i].startswith("learning.") and not in_learning[i]
                  and run_of[i] >= 0):
                learning_child[run_of[i]] += dur[i]

        by_name: dict[str, list[int]] = {}
        for i in range(n):
            by_name.setdefault(names[i], []).append(i)

        def total(name, where=lambda i: True):
            return sum(dur[i] for i in by_name.get(name, ()) if where(i))

        def count(name, where=lambda i: True):
            return sum(1 for i in by_name.get(name, ()) if where(i))

        def self_time(name):
            return sum(dur[i] - child[i] for i in by_name.get(name, ()))

        run_s = total("simulation.Simulation.run")
        runs = count("simulation.Simulation.run")
        gen_s = sum(total(name, lambda i: self.parent[i] < 0
                          or names[self.parent[i]] not in GEN_FUNCS)
                    for name in GEN_FUNCS)
        draws = self.draws_per_generation()
        scenario_s = total("theory.verify_lower_bound")
        scenarios = count("theory.verify_lower_bound")
        under_experiment = (lambda i: self.parent[i] >= 0 and
                            names[self.parent[i]] == "sweep.run_experiment")
        out = {
            "simulation.init_s": total("simulation.Simulation.__init__"),
            "simulation.run_s": run_s,
            "simulation.epoch_s": (run_s / (runs * epochs_per_run)
                                   if runs and epochs_per_run else 0.0),
            "simulation.self_s": run_s - sum(learning_child),
            "learning.grad_calls": count("learning.loss_and_grad"),
            "learning.grad_s": total("learning.loss_and_grad"),
            "learning.fgsm_s": total("learning.fgsm_poison"),
            "learning.accuracy_s": total("learning.accuracy"),
            "learning.data_s": (total("learning.synth_dataset")
                                + total("learning.partition")),
            "graphs.gen_s": gen_s,
            "graphs.draws_per_graph": (sum(draws) / len(draws)
                                       if draws else 0.0),
            "graphs.eigcent_s": total("graphs.eigenvector_centrality"),
            "graphs.eigcent_calls": count("graphs.eigenvector_centrality"),
            "graphs.eigcent_failures": count(
                "graphs.eigenvector_centrality", lambda i: self.raised[i]),
        }
        for strategy in STRATEGIES:
            out[f"placement.place_s.{strategy}"] = total(
                "placement.place", lambda i: self.tags.get(i) == strategy)
        out.update({
            "theory.scenario_s": scenario_s / scenarios if scenarios else 0.0,
            "theory.trials_per_s": (scenarios * trials_per_scenario
                                    / scenario_s if scenario_s else 0.0),
            "sweep.pregen_s": sum(
                total(name, under_experiment)
                for name in ("simulation.build_graph", "graphs.save_graph",
                             "simulation.seed_streams")),
            "sweep.load_graph_s": total("graphs.load_graph"),
            "sweep.cell_s": total("sweep.run_cell"),
            "sweep.io_s": (self_time("sweep.run_cell")
                           + self_time("sweep.run_experiment")),
            "metrics.aal_s": total("metrics.compute_aal"),
            "config.parse_s": total("config.parse_config"),
            "config.cells_s": total("config.ExperimentSpec.cells"),
            "trace.spans": n,
        })
        return out
