"""Per-layer spans and counters around fielddesign's public functions.

`Tracer.install()` wraps every public module-level function of the five
layers (arrays, model, optimality, designs, cli) and rebinds the wrapper
at every place the function is bound in a loaded fielddesign module, so
`optimality`'s own import of `model.triple_table` is traced as well.
A layer's self time is the time inside its functions minus the time of
the traced calls they make; private helpers count toward the public call
that encloses them.  Counters are taken from arguments and return values
at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("arrays", "model", "optimality", "designs", "cli")

# counters named by the benchmark, with the functions whose time is kept inclusive
INCLUSIVE = {
    "model.fraction_pinv_s": "model.fraction_pinv",
    "optimality.verify_s": "optimality.verify_measure",
    "designs.construct_s": "designs.construct_exact",
    "designs.efficiency_s": "designs.efficiencies",
    "cli.main_s": "cli.main",
}
COUNTS = (
    "arrays.orbits_enumerated",
    "model.triples_scored",
    "model.component_blocks",
    "model.pinv_calls",
    "optimality.solver_steps",
    "optimality.pool_size",
    "optimality.support_size",
    "optimality.measure_atoms",
    "designs.swap_evaluations",
)
_BATCH_SCORERS = {"model.triple_table", "model.closed_numerators_batch",
                  "model.trace_numerators_batch"}
_SINGLE_SCORERS = {"model.c_coeffs_closed", "model.c_coeffs_trace"}
_POOL_BUILDERS = {"optimality.full_pool", "optimality.support_pool",
                  "optimality.random_pool"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, layer, start, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fielddesign.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "fielddesign" and not modname.startswith("fielddesign."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, fn, layer: str, name: str):
        observe = self._observer(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave()
                    if observe is not None:
                        observe(args, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave()
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    # -- accounting -----------------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        self.stack.append([name, layer, perf_counter(), 0.0])

    def _leave(self) -> None:
        end = perf_counter()
        name, layer, start, child = self.stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self.inclusive[name] += dur
        if self.stack:
            self.stack[-1][3] += dur

    def _observer(self, name: str):
        """The counter update made after each call of `name`, if any; it runs
        with the callers still on the stack."""
        c = self.counts

        def outermost_model() -> bool:
            return not any(frame[1] == "model" for frame in self.stack)

        if name == "arrays.enumerate_orbits":
            def observe(args, out):
                c["arrays.orbits_enumerated"] += 1
        elif name == "arrays.enumerate_label_matrix":
            def observe(args, out):
                c["arrays.orbits_enumerated"] += len(out)
        elif name in _BATCH_SCORERS:
            def observe(args, out):
                if outermost_model():
                    c["model.triples_scored"] += len(args[0])
        elif name in _SINGLE_SCORERS:
            def observe(args, out):
                if outermost_model():
                    c["model.triples_scored"] += 1
        elif name == "model.block_components":
            def observe(args, out):
                c["model.component_blocks"] += 1
        elif name == "model.fraction_pinv":
            def observe(args, out):
                c["model.pinv_calls"] += 1
        elif name == "model.symmetric_pinv":
            def observe(args, out):
                c["model.pinv_calls"] += 1
                if any(frame[0] == "designs.construct_exact" for frame in self.stack):
                    c["designs.swap_evaluations"] += 1
        elif name in ("optimality.solve_exchange", "optimality.solve_closed_form"):
            def observe(args, out):
                c["optimality.solver_steps"] += out.iterations
                if out.measure is not None:
                    c["optimality.measure_atoms"] += len(out.measure)
        elif name in _POOL_BUILDERS:
            def observe(args, out):
                c["optimality.pool_size"] += len(out)
        elif name == "optimality.support_set":
            def observe(args, out):
                c["optimality.support_size"] += len(out)
        else:
            observe = None
        return observe

    def totals(self) -> dict[str, float]:
        """Every per-layer figure this tracer gathers, summed over calls."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0)
               for layer in LAYERS if layer != "cli"}
        for key, fn in INCLUSIVE.items():
            out[key] = self.inclusive.get(fn, 0.0)
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        return out
