"""Spans around the calls into darksol's layers, recorded from outside.

The wrappers replace module attributes as the *calling* module binds
them (for example ``darksol.kink.solve_tridiagonal``), so a span says
both which layer did the work and which layer asked for it. Nothing in
``src/`` is edited: `Tracer.install` swaps the attributes in, `remove`
puts the originals back. A target the program no longer has is listed
in `missing` and simply yields no spans.
"""

import functools
import importlib
import time

# (module the name is looked up in, attribute, layer of the callee).
# The module is the caller's binding; the span name is "<module>.<attribute>".
TARGETS = (
    ("darksol.pipeline", "run_soliton", "pipeline"),
    ("darksol.pipeline", "run_background", "pipeline"),
    ("darksol.cli", "run_soliton", "pipeline"),
    ("darksol.cli", "run_background", "pipeline"),
    ("darksol.pipeline", "validate_problem", "model"),
    ("darksol.cli", "validate_problem", "model"),
    ("darksol.cli", "sample_coefficient", "model"),
    ("darksol.model", "Coefficient.on_grid", "model"),
    ("darksol.pipeline", "solve_periodic", "periodic"),
    ("darksol.pipeline", "monotone_iteration_oracle", "periodic"),
    ("darksol.pipeline", "to_allen_cahn", "reduction"),
    ("darksol.pipeline", "lift", "reduction"),
    ("darksol.verify", "to_allen_cahn", "reduction"),
    ("darksol.verify", "lift", "reduction"),
    ("darksol.cli", "to_allen_cahn", "reduction"),
    ("darksol.pipeline", "select_truncation", "kink"),
    ("darksol.pipeline", "minimize", "kink"),
    ("darksol.cli", "select_truncation", "kink"),
    ("darksol.pipeline", "build_report", "verify"),
    ("darksol.cli", "build_report", "verify"),
    ("darksol.evolve", "evolve_nls", "evolve"),
    ("darksol.evolve", "modulus_deviation", "evolve"),
    ("darksol.evolve", "phase_rotation_check", "evolve"),
    ("darksol.evolve", "kink_drift", "evolve"),
    ("darksol.cli", "evolve_nls", "evolve"),
    ("darksol.cli", "modulus_deviation", "evolve"),
    ("darksol.cli", "phase_rotation_check", "evolve"),
    ("darksol.cli", "kink_drift", "evolve"),
    ("darksol.kink", "solve_tridiagonal", "_banded"),
    ("darksol.evolve", "solve_tridiagonal", "_banded"),
    ("darksol.periodic", "solve_cyclic", "_banded"),
    ("darksol.cli", "main", "cli"),
    ("darksol.cli", "load_config", "cli"),
    ("darksol.cli", "write_csv", "cli"),
    ("darksol.cli", "read_csv", "cli"),
    ("darksol.cli", "write_json", "cli"),
    ("darksol.cli", "_sweep_row", "cli"),
    ("darksol.svgplot", "line_plot", "cli"),
)


def _resolve(module_name, attr):
    """Return (owner, leaf attribute) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "draw",
                 "error", "info")

    def __init__(self, name, layer, parent, draw):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.draw = draw
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    def as_dict(self, index):
        return {"id": index, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "draw": self.draw, "error": self.error, "info": self.info}


def _result_info(name, args, result):
    """Counts a span carries from its return value; None if unreadable."""
    leaf = name.rsplit(".", 1)[-1]
    try:
        if leaf == "minimize":
            return {"flow": result.flow_iterations,
                    "polish": result.polish_iterations,
                    "deferred": "polish_deferred" in result.flags,
                    "nodes": args[0].grid.n}
        if leaf in ("solve_periodic", "monotone_iteration_oracle"):
            return {"iters": result.iterations}
        if leaf == "evolve_nls":
            return {"steps": result.n_steps}
    except (AttributeError, IndexError, TypeError):
        return None
    return None


class Tracer:
    """In-memory span recorder. `draw` tags every span with the operation
    that is running; `paused` stops recording (used while gates run)."""

    def __init__(self):
        self.spans = []
        self.draw = None
        self.paused = False
        self.missing = []
        self._stack = []
        self._patches = []
        # id(exception) -> (exception, index of the innermost span it
        # left); holding the exception keeps its id from being reused.
        self._raised_in = {}

    def install(self, targets=TARGETS):
        # Resolve (and so import) every module before patching any: a
        # module imported mid-way would bind an already wrapped function.
        found = [(_resolve(module_name, attr), f"{module_name}.{attr}", layer)
                 for module_name, attr, layer in targets]
        for target, name, layer in found:
            if target is None:
                self.missing.append(name)
                continue
            owner, leaf = target
            original = owner.__dict__.get(leaf, getattr(owner, leaf))
            setattr(owner, leaf, self._wrap(original, name, layer))
            self._patches.append((owner, leaf, original))

    def remove(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def restored(self, targets=TARGETS):
        """True when every target attribute is the unwrapped original."""
        for module_name, attr, _ in targets:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, leaf = found
            if getattr(owner.__dict__.get(leaf), "__wrapped__", None) \
                    is not None:
                return False
        return True

    def innermost(self, exc):
        entry = self._raised_in.get(id(exc))
        if entry is None or entry[0] is not exc:
            return None
        return self.spans[entry[1]].name

    def _wrap(self, original, name, layer):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, layer, parent, tracer.draw)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                tracer._raised_in.setdefault(id(exc), (exc, index))
                raise
            finally:
                tracer._stack.pop()
            span.end = time.perf_counter()
            span.info = _result_info(name, args, result)
            return result

        return wrapper


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
