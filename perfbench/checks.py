"""Checks of every workload's answers against the independent reference.

Each check takes the operation and the worker's encoded result and
returns a list of problems, empty when the answer is right.  Numbers
encoded as 'n/d' strings are exact and compared exactly; floats are
compared within a relative 1e-9.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import reference as ref
import workloads
from inputs import COMPANION_428, COMPANION_428_PUBLISHED, OPTIMAL_232, normalized_blocks

REL = 1e-9


def dec(v):
    return Fraction(v) if isinstance(v, str) else float(v)


def close(got, want, rel: float = REL) -> bool:
    return abs(float(got) - float(want)) <= rel * max(1.0, abs(float(want)))


def same(got, want) -> bool:
    """Exact equality when both are exact, else agreement within REL."""
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        return got == want
    return close(got, want)


def kernel_of(spec: dict, p: int, inputs: dict) -> ref.Kernel:
    kind = spec["kind"]
    if kind == "identity":
        return ref.Kernel.identity()
    if kind == "type-h":
        return ref.Kernel.type_h(Fraction(spec["x"]))
    if kind == "ar":
        return ref.Kernel.dense(ref.ar1_matrix(p, spec["rho"]))
    if spec["input"] == "eye":
        return ref.Kernel.dense(np.eye(p))
    return ref.Kernel.dense(inputs[spec["input"]])


def efficiency_problems(got, want, tol: float) -> list[str]:
    """Library (A, D, E, T) against the reference, and E <= A <= D <= T <= 1."""
    out = []
    if any(abs(g - w) > tol for g, w in zip(got, want)):
        out.append(f"efficiencies {got} differ from reference {want}")
    e_a, e_d, e_e, e_t = got
    if not (e_e <= e_a + REL and e_a <= e_d + REL and e_d <= e_t + REL
            and e_t <= 1 + REL):
        out.append(f"efficiencies {got} break E <= A <= D <= T <= 1")
    return out


class Checker:
    """Holds the inputs and caches each shape's full orbit tables."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self._labels: dict = {}
        self._tables: dict = {}

    def labels(self, shape) -> np.ndarray:
        if shape not in self._labels:
            self._labels[shape] = ref.orbit_labels(*shape)
        return self._labels[shape]

    def numerators(self, shape) -> np.ndarray:
        key = (shape, "numerators")
        if key not in self._tables:
            self._tables[key] = ref.triple_numerators(self.labels(shape), *shape)
        return self._tables[key]

    def table(self, shape, kernel: ref.Kernel, key) -> np.ndarray:
        key = (shape, json.dumps(key, sort_keys=True))
        if key not in self._tables:
            self._tables[key] = ref.triples_float(self.labels(shape), *shape, kernel)
        return self._tables[key]

    def minimax(self, shape, kernel: ref.Kernel, key):
        """Reference y*: the paper's closed form when it applies, else the
        envelope minimum over every orbit."""
        a, b, t = shape
        if kernel.exact and t <= a * b - 2:
            return ref.balanced_y_star(a, b, t) * kernel.scale
        return ref.envelope_minimum(self.table(shape, kernel, key))[0]

    # -- the equivalence certificate --------------------------------------------

    def certificate(self, shape, kernel, key, atoms, x, y) -> list[str]:
        """The measure's quadratic has its minimum y at x, and no orbit's
        quadratic exceeds y at x."""
        a, b, t = shape
        p = a * b
        labels = np.array([lab for lab, _ in atoms], dtype=np.int64)
        weights = [dec(w) for _, w in atoms]
        exact = (kernel.exact and isinstance(x, Fraction) and isinstance(y, Fraction)
                 and all(isinstance(w, Fraction) for w in weights))
        out = []
        if exact:
            if sum(weights) != 1:
                out.append(f"weights sum to {sum(weights)}")
            nums = ref.triple_numerators(labels, a, b, t)
            agg = ref.aggregate([[int(v) for v in row] for row in nums], weights)
            c = tuple(v * kernel.scale / (p * t) for v in agg)
            top = ref.envelope_max_exact(self.numerators(shape), kernel.scale, p, t, x)
            bound_ok = top <= y
        else:
            if not close(sum(float(w) for w in weights), 1.0):
                out.append(f"weights sum to {sum(float(w) for w in weights)}")
            tab = ref.triples_float(labels, a, b, t, kernel)
            c = tuple(np.asarray(weights, dtype=float) @ tab)
            full = self.table(shape, kernel, key)
            xf = float(x)
            top = float(np.max(full[:, 0] + 2 * full[:, 1] * xf + full[:, 2] * xf * xf))
            bound_ok = top <= float(y) + REL * abs(float(y))
        q_min, x_min = ref.quadratic_minimum(c)
        if not (same(q_min, y) and (c[2] == 0 or same(x_min, x))):
            out.append(f"measure quadratic has minimum {q_min} at {x_min}, "
                       f"claimed {y} at {x}")
        if not bound_ok:
            out.append(f"an orbit reaches {top} > y* = {y} at x* = {x}")
        return out

    # -- workloads --------------------------------------------------------------

    def check_certify(self, op: dict, doc: dict) -> list[str]:
        shape = tuple(op["shape"])
        if "error" in doc:
            if shape in workloads.KNOWN_FAILING and not doc.get("unexpected"):
                return []
            return [f"failed: {doc['error']}"]
        a, b, t = shape
        kernel = kernel_of(op["sigma"], a * b, self.inputs)
        x, y = dec(doc["x"]), dec(doc["y"])
        out = self.certificate(shape, kernel, op["sigma"], doc["atoms"], x, y)
        if doc["verdict"] != "optimal":
            out.append(f"verify_measure says {doc['verdict']!r}")
        if doc["gap"] is not None:
            gap = dec(doc["gap"])
            if (gap != 0) if isinstance(gap, Fraction) else abs(gap) > REL * abs(float(y)):
                out.append(f"equivalence gap {gap} is not zero")
        want = self.minimax(shape, kernel, op["sigma"])
        if not same(y, want):
            out.append(f"y* = {y}, reference {want}")
        if t <= a * b - 2 and x != 0:
            out.append(f"x* = {x}, expected 0")
        if doc["sym_n"] is not None:
            out += self._symmetric_design(shape, kernel, doc, y)
        return out

    def _symmetric_design(self, shape, kernel, doc, y) -> list[str]:
        n = doc["sym_n"]
        pairs = [(lab, dec(w)) for lab, w in doc["atoms"]]
        least = ref.least_symmetric_n([(w, 1) for _, w in pairs])
        if least != n:
            return [f"least symmetric n is {least}, got {n}"]
        blocks = [lab for lab, w in pairs for _ in range(int(n * w))]
        want = ref.efficiencies(blocks, *shape, kernel, y)
        out = efficiency_problems(doc["eff"], want, REL)
        if any(abs(v - 1) > REL for v in want):
            out.append(f"symmetric design of an optimal measure scores {want}")
        return out

    def check_type_h_scaling(self, results: dict, ops: list[dict]) -> list[str]:
        """Type-H with x = 3/2 divides the identity y* by 3/2."""
        out = []
        by_shape: dict = {}
        for op in ops:
            doc = results.get(op["name"])
            if op["kind"] == "certify" and doc and "error" not in doc:
                by_shape.setdefault(tuple(op["shape"]), {})[op["sigma"]["kind"]] = dec(doc["y"])
        for shape, ys in by_shape.items():
            if len(ys) == 2 and not same(ys["type-h"], ys["identity"] / Fraction(3, 2)):
                out.append(f"{shape}: type-H y* {ys['type-h']} is not "
                           f"identity y* {ys['identity']} / (3/2)")
        return out

    def check_design(self, op: dict, doc: dict) -> list[str]:
        key = op["design"]
        src = {"optimal_232": OPTIMAL_232, "companion_428": COMPANION_428}.get(key) \
            or self.inputs[key]
        shape, blocks = normalized_blocks(src)
        kernel = ref.Kernel.identity()
        y = dec(doc["y"])
        out = []
        want_y = self.minimax(shape, kernel, workloads.IDENTITY)
        if not same(y, want_y):
            out.append(f"y* = {y}, reference {want_y}")
        optimal = ref.is_optimal_design(blocks, *shape, kernel, y)
        if (doc["verdict"] == "optimal") != optimal:
            out.append(f"verdict {doc['verdict']!r}, reference optimal={optimal}")
        if (key == "optimal_232") != optimal:
            out.append(f"reference optimal={optimal} for {key}")
        want = ref.efficiencies(blocks, *shape, kernel, doc["eff_y"])
        out += efficiency_problems(doc["eff"], want, REL)
        if key == "companion_428":
            if any(abs(g - w) > 5e-4 for g, w in zip(want, COMPANION_428_PUBLISHED)):
                out.append(f"companion efficiencies {want} differ from published")
        return out

    def check_exchange(self, op: dict, doc: dict) -> list[str]:
        shape = tuple(op["shape"])
        a, b, t = shape
        kernel = kernel_of(op["sigma"], a * b, self.inputs)
        x, y = dec(doc["x"]), dec(doc["y"])
        out = [] if doc["converged"] else ["solve_exchange did not converge"]
        if abs(doc["gap"]) > REL * max(1.0, abs(y)):
            out.append(f"reported gap {doc['gap']} above tolerance")
        out += self.certificate(shape, kernel, op["sigma"], doc["atoms"], x, y)
        if op["sigma"]["kind"] == "dense" and op["sigma"]["input"] == "eye":
            kernel = ref.Kernel.identity()
        want = self.minimax(shape, kernel, op["sigma"])
        if not close(y, want):
            out.append(f"y* = {y}, reference {want}")
        return out

    def check_construct(self, op: dict, doc: dict) -> list[str]:
        a, b, t = op["shape"]
        shape = (min(a, b), max(a, b), t)
        out = []
        if tuple(doc["shape"]) != shape or doc["n"] != op["n"] or len(doc["blocks"]) != op["n"]:
            out.append(f"built shape {doc['shape']} n={doc['n']}, asked {shape} n={op['n']}")
            return out
        kernel = kernel_of(op["sigma"], shape[0] * shape[1], self.inputs)
        y = doc["y"]
        want_y = self.minimax(shape, kernel, op["sigma"])
        if not close(y, want_y):
            out.append(f"y* = {y}, reference {want_y}")
        want = ref.efficiencies(doc["blocks"], *shape, kernel, y)
        return out + efficiency_problems(doc["eff"], want, REL)

    def check_cli(self, op: dict, doc: dict, results: dict) -> list[str]:
        name = op["name"].split(":", 1)[1]
        if doc["code"] != op["exit"]:
            return [f"exit code {doc['code']}, expected {op['exit']}: {doc['stderr']}"]
        text = doc["stdout"]
        if name.endswith("-table"):
            return self._cli_table(name, text)
        try:
            out_doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        if name.startswith("solve"):
            return self._cli_solve(name, out_doc)
        if name == "enumerate-list":
            labels = self.labels((2, 3, 3))
            got = [ref.rows_to_colex(e["array"]["rows"]) for e in out_doc["listing"]]
            sizes = [e["size"] for e in out_doc["listing"]]
            if got != labels.tolist() or out_doc["orbits"] != len(labels):
                return ["orbit listing differs from the reference enumeration"]
            if sizes != [ref.orbit_size(lab, 3) for lab in labels]:
                return ["orbit sizes differ from the reference"]
            return []
        if name.startswith("verify"):
            src = OPTIMAL_232 if name == "verify-optimal" else self.inputs["random_232"]
            shape, blocks = normalized_blocks(src)
            y = dec(out_doc["y_star"].get("fraction", out_doc["y_star"]["decimal"]))
            optimal = ref.is_optimal_design(blocks, *shape, ref.Kernel.identity(), y)
            if optimal != (name == "verify-optimal"):
                return [f"reference optimal={optimal}"]
            if (out_doc["report"]["verdict"] == "optimal") != optimal:
                return [f"verdict {out_doc['report']['verdict']!r}"]
            return []
        if name == "efficiency-companion":
            shape, blocks = normalized_blocks(COMPANION_428)
            want = ref.efficiencies(blocks, *shape, ref.Kernel.identity(), out_doc["y_star"])
            got = [out_doc[k] for k in ("eff_A", "eff_D", "eff_E", "eff_T")]
            out = efficiency_problems(got, want, 5e-7 + REL)
            if any(abs(g - w) > 5e-4 for g, w in zip(got, COMPANION_428_PUBLISHED)):
                out.append(f"companion efficiencies {got} differ from published")
            return out
        if name.startswith("construct"):
            if name == "construct-again":
                first = results.get("cli:construct")
                return [] if first and first["stdout"] == text else [
                    "two runs of the same construct differ"]
            design = out_doc["design"]
            shape, blocks = normalized_blocks(design)
            rep = out_doc["report"]
            if design["n"] != 6 or shape != (2, 3, 3):
                return [f"built {shape} n={design['n']}"]
            want = ref.efficiencies(blocks, *shape, ref.Kernel.identity(), rep["y_star"])
            got = [rep[k] for k in ("eff_A", "eff_D", "eff_E", "eff_T")]
            return efficiency_problems(got, want, 5e-7 + REL)
        return [f"no check for {name}"]

    def _cli_solve(self, name: str, doc: dict) -> list[str]:
        shape = (doc["a"], doc["b"], doc["t"])
        spec = {"solve-identity": workloads.IDENTITY, "solve-type-h": workloads.TYPE_H,
                "solve-dense": {"kind": "dense", "input": "cov_233"}}[name]
        kernel = kernel_of(spec, shape[0] * shape[1], self.inputs)

        def num(v):
            return Fraction(v["fraction"]) if "fraction" in v else float(v["decimal"])
        x, y = num(doc["x_star"]), num(doc["y_star"])
        atoms = [(ref.rows_to_colex(e["array"]["rows"]),
                  e["weight"]["fraction"] if "fraction" in e["weight"]
                  else e["weight"]["decimal"]) for e in doc["measure"]]
        out = self.certificate(shape, kernel, spec, atoms, x, y)
        if not doc["converged"]:
            out.append("not converged")
        want = self.minimax(shape, kernel, spec)
        if not same(y, want):
            out.append(f"y* = {y}, reference {want}")
        return out

    def _cli_table(self, name: str, text: str) -> list[str]:
        rows = dict(line.split(None, 1) for line in text.splitlines() if line.strip())
        if name == "solve-table":
            y = Fraction(rows["y_star"].split()[0])
            want = ref.balanced_y_star(2, 4, 3)
            return [] if y == want else [f"table y_star {y}, reference {want}"]
        shape, blocks = normalized_blocks(self.inputs["random_428"])
        y = self.minimax(shape, ref.Kernel.identity(), workloads.IDENTITY)
        want = ref.efficiencies(blocks, *shape, ref.Kernel.identity(), y)
        got = [float(rows[k]) for k in ("eff_A", "eff_D", "eff_E", "eff_T")]
        if any(abs(g - w) > 5e-5 + REL for g, w in zip(got, want)):
            return [f"table efficiencies {got}, reference {want}"]
        return []

    def check(self, op: dict, doc: dict, results: dict) -> list[str]:
        kind = op["kind"]
        if kind == "cli":
            return self.check_cli(op, doc, results)
        if "error" in doc and kind != "certify":
            return [f"failed: {doc['error']}"]
        return getattr(self, f"check_{kind}")(op, doc)
