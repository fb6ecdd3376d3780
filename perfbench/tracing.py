"""Spans around the package's public calls, recorded from outside the package.

`Tracer.install` replaces selected module attributes of `insider_hedge`
with wrappers that record one span per call: name, start, end, parent
span and pass (run) id, plus exact counters taken from the arguments or
the result.  Each attribute is patched in the namespace of the module
that calls it (e.g. `cli.build_batch`), because the package imports
names directly.  Spans stay in memory until `write_jsonl`.

A layer's self time is its span duration minus the part of that
interval its child spans cover.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import time
import weakref

import numpy as np

FLAGS = ("atom_gap", "below_se_floor", "mode_disagree", "acceptance_floor")

# (unit, name) of every per-layer metric, in report order
LAYER_METRICS = (
    ("s", "rng.busy_s"),
    ("count", "rng.normals"),
    ("1/s", "rng.normals_per_s"),
    ("s", "insider_signal.sample_s"),
    ("count", "insider_signal.draws"),
    ("count", "insider_signal.proposed"),
    ("ratio", "insider_signal.accept_ratio"),
    ("s", "insider_signal.density_s"),
    ("s", "model_core.busy_s"),
    ("count", "model_core.calls"),
    ("s", "measure_engine.build_s"),
    ("s", "measure_engine.assemble_s"),
    ("count", "measure_engine.batches"),
    ("B", "measure_engine.batch_bytes"),
    ("s", "np_solver.cold_plan_s"),
    ("s", "np_solver.warm_plan_s"),
    ("s", "np_solver.alpha_plan_s"),
    ("count", "np_solver.plans.epsilon"),
    ("count", "np_solver.plans.alpha"),
    ("s", "cli.self_s"),
    ("s", "cli.serialize_s"),
    ("B", "cli.bytes_out"),
    ("count", "cli.cells"),
    *(("count", f"cli.flags.{flag}") for flag in FLAGS),
    ("s", "tree_oracle.market_s"),
    ("s", "tree_oracle.atom_table_s"),
    ("s", "tree_oracle.theorems_s"),
    ("s", "tree_oracle.exhaustive_s"),
    ("count", "tree_oracle.identities"),
    ("count", "tree_oracle.levels"),
    ("count", "tree_oracle.subsets"),
    ("s", "trace.overhead_s"),
)

COUNT_METRICS = tuple(name for unit, name in LAYER_METRICS if unit in ("count", "B"))


def _rows(result) -> dict:
    return {"normals": int(result.size), "rows": int(result.shape[0])}


def _draws(result) -> dict:
    # the point sampler returns W_T, the interval sampler a (W_T, W_{T+delta}) pair
    w_t = result[0] if isinstance(result, tuple) else result
    return {"draws": len(w_t)}


def _batch(result) -> dict:
    arrays = (getattr(result, f.name) for f in dataclasses.fields(result))
    return {"bytes": sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))}


def _subsets(table, g, *_) -> dict:
    # the exhaustive checks enumerate every subset of the conditional horizon atoms
    return {"subsets": 2 ** sum(1 for atom in table.atoms if atom.g == g)}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, run, counters]
        self.run = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._planned: dict[int, weakref.ref] = {}

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters = before(*args, **kwargs) if before else {}
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run, counters]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after:
                counters.update(after(result))
            return result
        return traced

    def _plan_kind(self, batch, *, epsilon=None, alpha=None) -> dict:
        # a batch's first plan builds the solver's sorted cache
        ref = self._planned.get(id(batch))
        cold = ref is None or ref() is not batch
        self._planned[id(batch)] = weakref.ref(batch)
        return {"cold": int(cold), "alpha": int(alpha is not None)}

    def begin_pass(self, run: int) -> None:
        self.run = run
        self._planned.clear()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        from insider_hedge import cli, insider_signal, measure_engine, model_core

        points = (
            (model_core, "standard_normal_stream", "rng", None, _rows),
            (insider_signal, "standard_normal_stream", "rng", None, _rows),
            (measure_engine, "sample_point_conditional", "insider_signal.sample", None, _draws),
            (measure_engine, "sample_indicator_conditional", "insider_signal.sample", None, _draws),
            (measure_engine, "density_point", "insider_signal.density", None, None),
            (measure_engine, "density_indicator", "insider_signal.density", None, None),
            (measure_engine, "price_from_brownian", "model_core", None, None),
            (measure_engine, "rn_density", "model_core", None, None),
            (measure_engine, "bs_call_price", "model_core", None, None),
            (cli, "build_batch", "measure_engine.build_batch", None, _batch),
            (cli, "make_hedge_plan", "np_solver.plan", self._plan_kind, None),
            (cli, "random_market", "tree_oracle.market", None, None),
            (cli, "reference_market", "tree_oracle.market", None, None),
            (cli, "build_atom_table", "tree_oracle.atom_table", None, None),
            (cli, "verify_theorems", "tree_oracle.theorems", None,
             lambda report: {"identities": report.n_checks}),
            (cli, "achievable_levels", "tree_oracle.exhaustive", None,
             lambda levels: {"levels": len(levels)}),
            (cli, "exhaustive_optimality_check", "tree_oracle.exhaustive", _subsets, None),
            (cli, "exhaustive_epsilon_check", "tree_oracle.exhaustive", _subsets, None),
        )
        for module, attr, name, before, after in points:
            original = getattr(module, attr, None)
            if original is None:
                # a later refactor removed this call; its layer then reads zero
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, before, after))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def pass_metrics(self, run: int, outputs: dict) -> dict:
        """Per-layer metrics of one traced pass; `outputs` holds the cli.* counts."""
        spans = {i: s for i, s in enumerate(self.spans) if s[4] == run}
        children: dict[int, list] = {}
        for s in spans.values():
            children.setdefault(s[3], []).append(s)

        def self_time(i: int) -> float:
            span, covered, reach = spans[i], 0.0, spans[i][1]
            for child in sorted(children.get(i, ()), key=lambda c: c[1]):
                lo, hi = max(child[1], reach), child[2]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return span[2] - span[1] - covered

        def total(name, where=lambda i: True, value=lambda i: spans[i][2] - spans[i][1]) -> float:
            return sum(value(i) for i, s in spans.items() if s[0] == name and where(i))

        def count(name, key, where=lambda i: True) -> int:
            return sum(s[5].get(key, 0) for i, s in spans.items() if s[0] == name and where(i))

        def calls(name) -> int:
            return sum(1 for s in spans.values() if s[0] == name)

        samplers = {i for i, s in spans.items() if s[0] == "insider_signal.sample"}
        in_sampler = lambda i: spans[i][3] in samplers  # noqa: E731
        plan = lambda key, value: lambda i: spans[i][5][key] == value  # noqa: E731

        rng_s = total("rng")
        normals = count("rng", "normals")
        draws = count("insider_signal.sample", "draws")
        proposed = count("rng", "rows", in_sampler)
        out = {
            "rng.busy_s": rng_s,
            "rng.normals": normals,
            "rng.normals_per_s": normals / rng_s if rng_s else 0.0,
            "insider_signal.sample_s": total("insider_signal.sample", value=self_time),
            "insider_signal.draws": draws,
            "insider_signal.proposed": proposed,
            "insider_signal.accept_ratio": draws / proposed if proposed else 0.0,
            "insider_signal.density_s": total("insider_signal.density"),
            "model_core.busy_s": total("model_core"),
            "model_core.calls": calls("model_core"),
            "measure_engine.build_s": total("measure_engine.build_batch"),
            "measure_engine.assemble_s": total("measure_engine.build_batch", value=self_time),
            "measure_engine.batches": calls("measure_engine.build_batch"),
            "measure_engine.batch_bytes": count("measure_engine.build_batch", "bytes"),
            "np_solver.cold_plan_s": total("np_solver.plan", where=plan("cold", 1)),
            "np_solver.warm_plan_s": total("np_solver.plan", where=plan("cold", 0)),
            "np_solver.alpha_plan_s": total("np_solver.plan", where=plan("alpha", 1)),
            "np_solver.plans.epsilon": calls("np_solver.plan") - count("np_solver.plan", "alpha"),
            "np_solver.plans.alpha": count("np_solver.plan", "alpha"),
            "cli.self_s": total("cli.run", value=self_time),
            "cli.serialize_s": total("cli.serialize"),
            "tree_oracle.market_s": total("tree_oracle.market"),
            "tree_oracle.atom_table_s": total("tree_oracle.atom_table"),
            "tree_oracle.theorems_s": total("tree_oracle.theorems"),
            "tree_oracle.exhaustive_s": total("tree_oracle.exhaustive"),
            "tree_oracle.identities": count("tree_oracle.theorems", "identities"),
            "tree_oracle.levels": count("tree_oracle.exhaustive", "levels"),
            "tree_oracle.subsets": count("tree_oracle.exhaustive", "subsets"),
        }
        out.update(outputs)
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for name, start, end, parent, run, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, **counters}) + "\n")


def combine_passes(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of each timing over traced passes; counts must repeat exactly."""
    problems = []
    combined = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            combined[name] = values[0]
        else:
            combined[name] = statistics.median(values)
    return combined, problems
