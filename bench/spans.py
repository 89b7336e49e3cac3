"""Span tracing for the quadlie benchmark, installed from outside the library.

`Tracer.install()` replaces selected public functions and methods of the
quadlie modules with wrappers that time each call.  Nothing under `src/`
changes: the wrappers are set on the classes and module namespaces at run
time and `uninstall()` puts the originals back.

Each wrapped call is a span with a name, start, end and parent span.
Coarse spans (a Jacobi check, a normal form, a build) are kept one record
each.  Hot-path spans (the `Scalar`, `NCPoly` and `SparseOp` operators,
`normalize2`, `parse_scalar`) are called millions of times, so they are
aggregated per parent span into (calls, total seconds, self seconds).  A
span's self time is its duration minus the time covered by its child
spans; it is accumulated at run time on the span stack.

The `Scalar` and `NCPoly` constructors are counted, not timed
(`scalars.alloc.count`, `ncpoly.alloc.count`).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

# Modules that carry spans.  `linalg` and `cli` are thin on every
# benchmarked path and are left unmeasured.
MODULES = (
    "scalars",
    "ncpoly",
    "exprparse",
    "presentation",
    "pbw",
    "gl2n1",
    "atypicality",
    "fock",
)

# (module, owner class or None, attribute, span key, aggregated)
# The span key's first component names the module the time is booked to.
SPANS: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("scalars", "Scalar", "__mul__", "scalars.mul", True),
    ("scalars", "Scalar", "__rmul__", "scalars.mul", True),
    ("scalars", "Scalar", "__add__", "scalars.add", True),
    ("scalars", "Scalar", "__radd__", "scalars.add", True),
    ("ncpoly", "NCPoly", "__add__", "ncpoly.add", True),
    ("ncpoly", "NCPoly", "__mul__", "ncpoly.mul", True),
    ("ncpoly", "NCPoly", "scale", "ncpoly.mul", True),
    ("exprparse", None, "parse_ncpoly", "exprparse.parse", False),
    ("exprparse", None, "parse_scalar", "exprparse.parse", True),
    ("presentation", "QlsPresentation", "loads", "presentation.loads", False),
    ("presentation", "QlsPresentation", "check_component_jacobi",
     "presentation.component", False),
    ("presentation", "QlsPresentation", "check_abstract_jacobi",
     "presentation.abstract", False),
    ("presentation", "QlsPresentation", "normalize2",
     "presentation.normalize2", True),
    ("pbw", "RewriteSystem", "__init__", "pbw.rewrite_init", False),
    ("pbw", "RewriteSystem", "normal_form", "pbw.normal_form", False),
    ("pbw", None, "serre_module_check", "pbw.serre", False),
    ("gl2n1", None, "build", "gl2n1.build", False),
    ("gl2n1", None, "char_roots", "gl2n1.weights", False),
    ("gl2n1", None, "projector", "gl2n1.weights", False),
    ("gl2n1", None, "casimirs", "gl2n1.weights", False),
    ("gl2n1", None, "family_data", "gl2n1.weights", False),
    ("atypicality", None, "atypicality_report", "atypicality.report", False),
    ("atypicality", None, "level1_poly", "atypicality.level1", False),
    ("atypicality", None, "zero_step", "atypicality.zero_step", False),
    ("atypicality", None, "zero_step_equivalence_check",
     "atypicality.equivalence", False),
    ("atypicality", None, "one_step_analysis", "atypicality.one_step", False),
    ("atypicality", None, "table_zero_step", "atypicality.table", False),
    ("fock", "SparseOp", "__mul__", "fock.sparse_mul", True),
    ("fock", None, "bracket_polynomial_check", "fock.bracket_check", False),
    ("fock", None, "zero_step_demo", "fock.zero_step_demo", False),
    ("fock", None, "lambda3_presentation", "fock.lambda3", False),
    ("fock", None, "presentation_cross_check", "fock.cross_check", False),
)

# constructors counted per call: (module, class, counter key)
COUNTERS = (
    ("scalars", "Scalar", "scalars.alloc"),
    ("ncpoly", "NCPoly", "ncpoly.alloc"),
)


class Tracer:
    """Collects spans from the wrapped quadlie callables of one process."""

    def __init__(self, package):
        self.package = package
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.nf_terms = 0
        self.violations = 0
        self.rational_muls = 0
        # coarse span records: (id, name, start, end, parent id)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        # hot spans per parent: (parent id, name) -> [calls, total, self]
        self.hot: Dict[Tuple[int, str], List[float]] = {}
        # active frames: [child seconds, module, id of nearest coarse span]
        self._stack: List[list] = [[0.0, None, 0]]
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        mods = {name: getattr(pkg, name) for name in MODULES}
        wrapped_functions: Dict[int, object] = {}
        for module, owner, attr, key, aggregated in SPANS:
            mod = mods[module]
            if owner is None:
                fn = getattr(mod, attr)
                wrapper = self._wrap(fn, key, aggregated)
                wrapped_functions[id(fn)] = wrapper
                self._patch(mod, attr, wrapper)
                continue
            cls = getattr(mod, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self._wrap(raw.__func__, key, aggregated)))
            else:
                self._patch(cls, attr, self._wrap(raw, key, aggregated))
        # functions imported by name into other modules of the package
        for modname in [pkg.__name__] + [
            f"{pkg.__name__}.{m}" for m in MODULES + ("cli", "linalg")
        ]:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name, value in list(vars(mod).items()):
                wrapper = wrapped_functions.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(mod, name, wrapper)
        for module, owner, key in COUNTERS:
            cls = getattr(mods[module], owner)
            self._patch(cls, "__init__", self._counting(cls.__dict__["__init__"], key))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, value) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    # -- wrappers -------------------------------------------------------

    def _counting(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn: Callable, key: str, aggregated: bool) -> Callable:
        module = key.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, errors = self.calls, self.self_s, self.errors
        spans, hot = self.spans, self.hot
        after = self._after_hooks().get(key)
        is_mul = key == "scalars.mul"
        is_ncpoly_mul = fn.__name__ == "__mul__" and key == "ncpoly.mul"

        def wrapper(*args, **kwargs):
            if is_ncpoly_mul and not isinstance(args[1], type(args[0])):
                # NCPoly * scalar delegates to scale(), which is counted
                return fn(*args, **kwargs)
            if is_mul:
                self._note_mul(args[0], args[1])
            parent = stack[-1]
            if aggregated:
                span_id = parent[2]
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, module, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[1] != module:
                    errors[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                own = duration - frame[0]
                calls[key] += 1
                self_s[key] += own
                if aggregated:
                    slot = hot.get((span_id, key))
                    if slot is None:
                        hot[(span_id, key)] = [1, duration, own]
                    else:
                        slot[0] += 1
                        slot[1] += duration
                        slot[2] += own
                else:
                    spans.append((span_id, key, start, end, parent[2]))
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _after_hooks(self) -> Dict[str, Callable]:
        def add_terms(nf):
            self.nf_terms += len(nf.terms)

        def add_violations(report):
            self.violations += len(report.violations)

        return {
            "pbw.normal_form": add_terms,
            "presentation.component": add_violations,
            "presentation.abstract": add_violations,
        }

    def _note_mul(self, a, b) -> None:
        if _is_plain_rational(a) and _is_plain_rational(b):
            self.rational_muls += 1

    # -- results --------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.split(".", 1)[0] == module), 0.0)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-module metrics as name -> (value, unit)."""
        c, s = self.calls, self.self_s
        muls = c["scalars.mul"]
        out = {
            "scalars.mul.calls": (c["scalars.mul"], "count"),
            "scalars.mul.self_s": (s["scalars.mul"], "s"),
            "scalars.add.calls": (c["scalars.add"], "count"),
            "scalars.add.self_s": (s["scalars.add"], "s"),
            "scalars.alloc.count": (self.counts["scalars.alloc"], "count"),
            "scalars.rational_frac": (
                self.rational_muls / muls if muls else 0.0, "ratio"),
            "ncpoly.add.calls": (c["ncpoly.add"], "count"),
            "ncpoly.add.self_s": (s["ncpoly.add"], "s"),
            "ncpoly.mul.calls": (c["ncpoly.mul"], "count"),
            "ncpoly.mul.self_s": (s["ncpoly.mul"], "s"),
            "ncpoly.alloc.count": (self.counts["ncpoly.alloc"], "count"),
            "exprparse.parse.calls": (c["exprparse.parse"], "count"),
            "exprparse.parse.self_s": (s["exprparse.parse"], "s"),
            "presentation.loads.self_s": (s["presentation.loads"], "s"),
            "presentation.component.self_s": (s["presentation.component"], "s"),
            "presentation.abstract.self_s": (s["presentation.abstract"], "s"),
            "presentation.normalize2.calls": (c["presentation.normalize2"], "count"),
            "presentation.normalize2.self_s": (s["presentation.normalize2"], "s"),
            "presentation.violations.count": (self.violations, "count"),
            "pbw.rewrite_init.self_s": (s["pbw.rewrite_init"], "s"),
            "pbw.normal_form.calls": (c["pbw.normal_form"], "count"),
            "pbw.normal_form.self_s": (s["pbw.normal_form"], "s"),
            "pbw.normal_form.terms": (self.nf_terms, "count"),
            "pbw.serre.calls": (c["pbw.serre"], "count"),
            "pbw.serre.self_s": (s["pbw.serre"], "s"),
            "gl2n1.build.self_s": (s["gl2n1.build"], "s"),
            "gl2n1.weights.self_s": (s["gl2n1.weights"], "s"),
            "atypicality.self_s": (self.module_self_s("atypicality"), "s"),
            "atypicality.one_step.self_s": (s["atypicality.one_step"], "s"),
            "fock.self_s": (self.module_self_s("fock"), "s"),
            "fock.sparse_mul.calls": (c["fock.sparse_mul"], "count"),
        }
        for module in MODULES:
            out[f"{module}.errors"] = (self.errors[module], "count")
        return out

    def dump(self, path: str) -> None:
        """Write the span records and hot aggregates as JSON."""
        data = {
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p}
                for i, n, a, b, p in self.spans
            ],
            "aggregated": [
                {"parent": p, "name": n, "calls": v[0], "total_s": v[1],
                 "self_s": v[2]}
                for (p, n), v in self.hot.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _is_plain_rational(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return True
    is_rational = getattr(x, "is_rational", None)
    return is_rational is not None and is_rational()
