"""In-memory span recorder that times wildsim's layers from outside.

`install(recorder)` replaces the public functions of each layer with
timing wrappers, in every wildsim module that holds a reference to them,
so the package itself carries no timing code.  Spans are aggregated in
memory under the key (name, parent name) and written out once, at the end
of the process.  The self time of a span is its duration minus the
durations of the spans it opened.

`sample_nu` is wrapped as a counter, not a span: each drawn cascade size
is added to the innermost open span, which is how cascades and leaves are
attributed to the sampler function that drew them.

Only single-process runs can be traced: spans recorded in forked workers
would stay in those workers.
"""

from __future__ import annotations

import dataclasses
import functools
from time import perf_counter

# Public functions timed as spans, per module: (attribute, span name).
MODULE_SPANS = {
    "sampler": [
        ("weight_statistic_sums", "sampler.weight_statistic_sums"),
        ("draw_tree_sample", "sampler.draw_tree_sample"),
        ("wild_velocity", "sampler.wild_velocity"),
    ],
    "geometry": [
        ("left_frame", "geometry.frames"),
        ("right_frame", "geometry.frames"),
    ],
    # the suites the benchmark's commands run
    "diagnostics": [
        ("run_identity_suite", "diagnostics.run_identity_suite"),
        ("conservation_check", "diagnostics.conservation_check"),
        ("moment_decay_fit", "diagnostics.moment_decay_fit"),
        ("representation_crosscheck", "diagnostics.representation_crosscheck"),
    ],
    "cli": [("main", "cli.main")],
}

WILDSIM_MODULES = ("kernel", "tree", "weights", "geometry", "initial",
                   "sampler", "diagnostics", "cli")


class Recorder:
    """Aggregated spans keyed by (name, parent)."""

    def __init__(self):
        self._stack = []   # open spans: [name, child seconds, counters]
        self._spans = {}

    def wrap(self, name, fn, units=None):
        """Return fn timed as span `name`; units(args) adds to its work count."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0, {}]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                record = self._spans.get((name, parent))
                if record is None:
                    record = self._spans[(name, parent)] = {
                        "calls": 0, "total_s": 0.0, "child_s": 0.0, "units": 0,
                        "cascades": 0, "leaves": 0, "nu_max": 0,
                    }
                record["calls"] += 1
                record["total_s"] += elapsed
                record["child_s"] += frame[1]
                if units is not None:
                    record["units"] += units(args)
                counters = frame[2]
                if counters:
                    record["cascades"] += counters["cascades"]
                    record["leaves"] += counters["leaves"]
                    record["nu_max"] = max(record["nu_max"], counters["nu_max"])

        return timed

    def exclude(self, seconds: float) -> None:
        """Charge time spent outside wildsim (the host-speed probe) to the
        innermost open span's children, so no layer's self time holds it."""
        if self._stack:
            self._stack[-1][1] += seconds

    def count_cascade(self, nu: int) -> None:
        if not self._stack:
            return
        counters = self._stack[-1][2]
        if not counters:
            counters.update(cascades=0, leaves=0, nu_max=0)
        counters["cascades"] += 1
        counters["leaves"] += nu
        if nu > counters["nu_max"]:
            counters["nu_max"] = nu

    def spans(self) -> list[dict]:
        """All spans, with self time, as plain records."""
        out = []
        for (name, parent), record in sorted(self._spans.items(),
                                             key=lambda item: (item[0][0], str(item[0][1]))):
            out.append({"name": name, "parent": parent, **record,
                        "self_s": record["total_s"] - record["child_s"]})
        return out


def _replace_everywhere(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap wildsim's layer boundaries with recorder spans."""
    import importlib

    import wildsim

    modules = {name: importlib.import_module(f"wildsim.{name}") for name in WILDSIM_MODULES}
    everywhere = [wildsim, *modules.values()]

    for module_name, entries in MODULE_SPANS.items():
        module = modules[module_name]
        for attr, span_name in entries:
            original = getattr(module, attr)
            _replace_everywhere(everywhere, original, recorder.wrap(span_name, original))

    sample_nu = modules["sampler"].sample_nu

    @functools.wraps(sample_nu)
    def counted_sample_nu(*args, **kwargs):
        nu = sample_nu(*args, **kwargs)
        recorder.count_cascade(nu)
        return nu

    _replace_everywhere(everywhere, sample_nu, counted_sample_nu)

    kernel_cls = modules["kernel"].CollisionKernel
    kernel_cls.inverse_beta_cdf = recorder.wrap(
        "kernel.inverse_beta_cdf", kernel_cls.inverse_beta_cdf,
        units=lambda args: int(args[1].size))
    rotation_cls = modules["geometry"].RotationArray
    rotation_cls.third_columns = recorder.wrap(
        "geometry.third_columns", rotation_cls.third_columns)

    make_initial_datum = modules["initial"].make_initial_datum

    @functools.wraps(make_initial_datum)
    def traced_datum(*args, **kwargs):
        datum = make_initial_datum(*args, **kwargs)
        cf = datum.cf
        return dataclasses.replace(
            datum,
            sampler=recorder.wrap("initial.sampler", datum.sampler,
                                  units=lambda args: int(args[1])),
            cf=None if cf is None else recorder.wrap(
                "initial.cf", cf, units=lambda args: int(args[0].size) // 3),
        )

    _replace_everywhere(everywhere, make_initial_datum, traced_datum)
