"""Per-module spans and counters, recorded from outside the program.

`Tracer.install()` wraps every public function of every ellsym module, plus
a few methods and the numpy/scipy entry points the program calls. A
function is often bound under several names (``conditions`` and ``cli``
take names with ``from … import``, and the package re-exports them), so the
wrapper replaces every binding that is the same object; patching only the
defining module would miss those calls.

Every wrapped call opens a span. A span's self time is its duration minus
the spans nested in it. Self time is charged to a metric key: the function's
own key when it is one of the named functions below, else the key of the
nearest enclosing span of the same module (so ``rref`` under ``nullspace``
counts as nullspace time), else ``<module>.other``. numpy FFTs and
``scipy.optimize.minimize`` are counted, not timed, so their time stays in
the caller (``witness.deriv_s``, ``conditions.is_elliptic_s``).

When disabled, a wrapper costs one attribute test per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "conditions", "dsl", "operators", "poly", "quadrature", "ratlinalg", "sturm", "witness")

# function -> metric key (time in seconds is reported as <key>_s)
NAMED = {
    "dsl.parse_system": "dsl.parse",
    "dsl.parse_operator": "dsl.parse",
    "poly.MatrixPolynomial.det": "poly.det",
    "poly.MatrixPolynomial.adjugate": "poly.adjugate",
    "poly.Polynomial.eval": "poly.eval",
    "ratlinalg.nullspace": "ratlinalg.nullspace",
    "operators.annihilator": "operators.annihilator",
    "operators.homogenize": "operators.homogenize",
    "conditions.is_elliptic": "conditions.is_elliptic",
    "conditions.kernel_intersection": "conditions.kernel_intersection",
    "conditions.image_intersection": "conditions.image_intersection",
    "conditions.check_weak_cancellation": "conditions.weak",
    "quadrature.build_rule": "quadrature.build_rule",
    "quadrature.compile_pseudoinverse": "quadrature.compile_pinv",
    "quadrature.moments_for_vectors": "quadrature.moments",
    "quadrature.moment_map": "quadrature.moments",
    "quadrature.converged_moments": "quadrature.moments",
    "witness.solve_system": "witness.solve",
    "witness.mollified_dirac": "witness.dirac",
    "witness.constrain_field": "witness.constrain",
    "witness.derivative_magnitude": "witness.deriv",
}
METHODS = {"poly": {"Polynomial": ("eval",), "MatrixPolynomial": ("det", "adjugate")}}


class Tracer:
    def __init__(self):
        self.enabled = False
        self._stack = []  # frames: [module, key, time of nested spans]
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)  # per wrapped function
        self.entries = defaultdict(int)  # spans opened from another module
        self.count = defaultdict(int)

    def _span(self, module, qualname, fn, after=None):
        full = f"{module}.{qualname}"
        named = NAMED.get(full)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            if named:
                key = named
            elif parent and parent[0] == module:
                key = parent[1]
            else:
                key = f"{module}.other"
            self.calls[full] += 1
            if parent is None or parent[0] != module:
                self.entries[module] += 1
            frame = [module, key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[key] += dt - frame[2]
                if parent is not None:
                    parent[2] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                after(args, result)
            return result

        return wrapper

    # -- result hooks -------------------------------------------------------

    def _det_done(self, args, result):
        self.count["poly.det_terms_max"] = max(self.count["poly.det_terms_max"], len(result.terms))

    def _elliptic_done(self, args, result):
        self.count[f"conditions.verdicts_{result.status}"] += 1

    def _rule_done(self, args, result):
        self.count["quadrature.nodes"] += result.count
        self.count["quadrature.max_level"] = max(self.count["quadrature.max_level"], result.level)

    def _solve_done(self, args, result):
        grid = args[2]
        self.count["witness.modes"] += grid.npts**grid.n

    def _minimize_done(self, args, result):
        self.count["conditions.minimize_evals"] += result.nfev

    def _fft_done(self, args, result):
        self.count["witness.fft_calls"] += 1
        self.count["witness.fft_bytes"] += args[0].nbytes + result.nbytes

    def install(self):
        """Wrap every binding of the public functions; returns self."""
        import numpy.fft
        import scipy.optimize

        mods = {name: importlib.import_module(f"ellsym.{name}") for name in MODULES}
        holders = [importlib.import_module("ellsym")] + list(mods.values())
        hooks = {
            "poly.MatrixPolynomial.det": self._det_done,
            "conditions.is_elliptic": self._elliptic_done,
            "quadrature.build_rule": self._rule_done,
            "witness.solve_system": self._solve_done,
        }
        for name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._span(name, attr, fn, hooks.get(f"{name}.{attr}"))
                for holder in holders:
                    for alias, obj in list(vars(holder).items()):
                        if obj is fn:
                            setattr(holder, alias, wrapped)
        for name, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[name], cls_name)
                for meth in methods:
                    qual = f"{cls_name}.{meth}"
                    setattr(cls, meth, self._span(name, qual, getattr(cls, meth), hooks.get(f"{name}.{qual}")))
        scipy.optimize.minimize = self._counted(scipy.optimize.minimize, self._minimize_done)
        numpy.fft.fftn = self._counted(numpy.fft.fftn, self._fft_done)
        numpy.fft.ifftn = self._counted(numpy.fft.ifftn, self._fft_done)
        return self

    def metrics(self):
        """The per-layer figures of everything recorded since the last reset."""
        s, c, n = self.self_s, self.calls, self.count
        return {
            "dsl.parse_s": s["dsl.parse"],
            "dsl.parse_calls": c["dsl.parse_system"] + c["dsl.parse_operator"],
            "poly.det_s": s["poly.det"],
            "poly.det_calls": c["poly.MatrixPolynomial.det"],
            "poly.det_terms_max": n["poly.det_terms_max"],
            "poly.adjugate_s": s["poly.adjugate"],
            "poly.adjugate_calls": c["poly.MatrixPolynomial.adjugate"],
            "poly.eval_s": s["poly.eval"],
            "poly.eval_calls": c["poly.Polynomial.eval"],
            "ratlinalg.nullspace_s": s["ratlinalg.nullspace"],
            "ratlinalg.nullspace_calls": c["ratlinalg.nullspace"],
            "sturm.s": s["sturm.other"],
            "sturm.calls": self.entries["sturm"],
            "operators.annihilator_s": s["operators.annihilator"],
            "operators.annihilator_calls": c["operators.annihilator"],
            "operators.homogenize_s": s["operators.homogenize"],
            "conditions.is_elliptic_s": s["conditions.is_elliptic"],
            "conditions.is_elliptic_calls": c["conditions.is_elliptic"],
            "conditions.minimize_evals": n["conditions.minimize_evals"],
            "conditions.kernel_intersection_s": s["conditions.kernel_intersection"],
            "conditions.image_intersection_s": s["conditions.image_intersection"],
            "conditions.weak_s": s["conditions.weak"],
            "conditions.verdicts_yes": n["conditions.verdicts_yes"],
            "conditions.verdicts_numerically_positive": n["conditions.verdicts_numerically_positive"],
            "quadrature.build_rule_s": s["quadrature.build_rule"],
            "quadrature.nodes": n["quadrature.nodes"],
            "quadrature.compile_pinv_s": s["quadrature.compile_pinv"],
            "quadrature.compile_pinv_calls": c["quadrature.compile_pseudoinverse"],
            "quadrature.moments_s": s["quadrature.moments"],
            "quadrature.max_level": n["quadrature.max_level"],
            "witness.solve_s": s["witness.solve"],
            "witness.solve_calls": c["witness.solve_system"],
            "witness.modes": n["witness.modes"],
            "witness.dirac_s": s["witness.dirac"],
            "witness.constrain_s": s["witness.constrain"],
            "witness.deriv_s": s["witness.deriv"],
            "witness.fft_calls": n["witness.fft_calls"],
            "witness.fft_mb": n["witness.fft_bytes"] / 1e6,
            "other_s": sum(v for k, v in s.items() if k.endswith(".other") and k != "sturm.other"),
        }
