"""Per-layer spans and counts, recorded from outside kolmo.

``Tracer.install()`` wraps every public function of each kolmo module,
the public methods and ``__post_init__`` of the classes defined there, and
``modulus._scaled_pairs``.  Each wrapper is rebound in every kolmo module
that holds the original by name (``taylor`` takes ``mat_exp`` from
``group``, ``cli`` imports from everything), so calls made inside kolmo
go through it too.  ``uninstall()`` puts the originals back.

A span is named ``<module>.<function>``; its module is its layer.  The
innermost open span owns the time, so a span's self time is its duration
minus that of its child spans, and a layer's self time is the sum over
its spans.  Spans are kept as per-name totals (calls, self time) for the
current report; ``take()`` returns them and starts the next report.
"""

import dataclasses
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import kolmo.taylor

LAYERS = ("matrixcalc", "group", "kernel", "taylor", "modulus", "verify", "cli")

# span name -> the per-layer count that each call adds one to
CALL_COUNTS = {
    "matrixcalc.mat_exp": "matrixcalc.mat_exp.calls",
    "matrixcalc.sqrt_spd": "matrixcalc.sqrt_spd.calls",
    "group.Point.__post_init__": "group.point.constructions",
    "group.kdist": "group.kdist.calls",
    "group.compose": "group.compose.calls",
    "group.inverse": "group.compose.calls",
    "kernel.gamma": "kernel.evals",
    "kernel.gamma_grad": "kernel.evals",
    "kernel.gamma_hess": "kernel.evals",
    "kernel.gamma_hess_m": "kernel.evals",
    "kernel.gamma_Y": "kernel.evals",
    "kernel.covariance": "kernel.covariance.calls",
    "taylor.connect": "taylor.connect.calls",
    "taylor.traj_increment": "taylor.traj_increment.calls",
    "taylor.bundle": "taylor.bundle.evals",
    "modulus.schauder_functional": "modulus.schauder_functional.calls",
    "verify.apply_L_fd": "verify.apply_L_fd.calls",
}

# span name -> (per-layer count, size of the result that it adds)
SIZE_COUNTS = {
    "group.sample_ball": ("group.sample_ball.points", len),
    "taylor.connect": ("taylor.plan.segments", lambda plan: len(plan.segments)),
    "modulus._scaled_pairs": ("modulus.pairs", len),
}

PRIVATE_SPANS = {"modulus._scaled_pairs"}
BUNDLE_FACTORIES = {"taylor.quadratic_bundle", "taylor.coordinate_bundle",
                    "taylor.gaussian_bundle"}
BUNDLE_FIELDS = tuple(f.name for f in dataclasses.fields(kolmo.taylor.C2Bundle))


def _spanned(qualname, attr):
    return not attr.startswith("_") or qualname in PRIVATE_SPANS


class Tracer:
    def __init__(self):
        self._stack = []
        self._mark = 0.0
        self._wrappers = None
        self._patches = []
        self._start_report()

    def _start_report(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._covariances = {}

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self._stack
        count = CALL_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = perf_counter()
            if stack:
                self.self_s[stack[-1]] += now - self._mark
            stack.append(name)
            self._mark = now
            self.calls[name] += 1
            if count:
                self.counts[count] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self.self_s[stack.pop()] += now - self._mark
                self._mark = now
            return result if after is None else after(result)

        wrapper.traced = True
        return wrapper

    def _after(self, name):
        if name in SIZE_COUNTS:
            key, size = SIZE_COUNTS[name]

            def add_size(result):
                self.counts[key] += size(result)
                return result

            return add_size
        if name == "kernel.covariance":
            return self._note_covariance
        if name in BUNDLE_FACTORIES:
            return self._wrap_bundle
        return None

    def _note_covariance(self, cov):
        # a hit returns a Covariance object this report has already seen;
        # holding it keeps its id from being reused
        if id(cov) in self._covariances:
            self.counts["kernel.covariance.hits"] += 1
        else:
            self._covariances[id(cov)] = cov
        return cov

    def _wrap_bundle(self, bundle):
        fields = {}
        for f in BUNDLE_FIELDS:
            fn = getattr(bundle, f)
            fields[f] = fn if getattr(fn, "traced", False) else self._span("taylor.bundle", fn)
        return dataclasses.replace(bundle, **fields)

    # -- installing -------------------------------------------------------

    def _build(self):
        """Map every original function to its wrapper; collect class patches."""
        wrappers, class_patches = {}, []
        for layer in LAYERS:
            mod = sys.modules[f"kolmo.{layer}"]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and _spanned(name, attr):
                    wrappers[obj] = self._span(name, obj, self._after(name))
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (
                                meth == "__post_init__" or not meth.startswith("_")):
                            qual = f"{name}.{meth}"
                            class_patches.append((obj, meth, fn, self._span(qual, fn)))
        return wrappers, class_patches

    def install(self):
        if self._wrappers is None:
            self._wrappers, self._class_patches = self._build()
        for cls, meth, _, wrapper in self._class_patches:
            setattr(cls, meth, wrapper)
        modules = [m for n, m in sys.modules.items()
                   if n == "kolmo" or n.startswith("kolmo.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._patches:
            setattr(mod, attr, obj)
        self._patches.clear()
        for cls, meth, fn, _ in self._class_patches:
            setattr(cls, meth, fn)

    def take(self):
        """This report's spans and counts; resets them for the next report."""
        if self._stack:
            raise RuntimeError(f"spans still open: {self._stack}")
        layer_self = Counter()
        for name, t in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += t
        counts = dict(self.counts)
        counts["kernel.covariance.entries"] = len(self._covariances)
        record = {
            "counts": counts,
            "layer_self_s": dict(layer_self),
            "spans": {name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                      for name in sorted(self.calls)},
        }
        self._start_report()
        return record
