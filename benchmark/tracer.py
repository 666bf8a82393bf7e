"""Spans around the library's public functions, recorded from outside.

`install()` replaces each traced function at every name that binds it: the
defining module, every cube_lab module that imported it with
`from ... import`, and every class attribute that aliases it (such as
`Poly.__rmul__ = __mul__`).  Each call opens a span whose parent is the
innermost traced call still open; a span's self time is its duration minus
the durations of its traced children.  Spans are folded into per-function
totals as they close, so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# (module, attribute path) of every traced function, in report order
TRACED = (
    ("ring", "Poly.__mul__"),
    ("ring", "Poly.__add__"),
    ("quadforms", "reduce"),
    ("quadforms", "act"),
    ("quadforms", "compose_dirichlet"),
    ("quadforms", "class_group"),
    ("quadforms", "ClassGroupTable.index"),
    ("cubes", "hyperdet_entries"),
    ("cubes", "forms_entries"),
    ("cubes", "act_entries"),
    ("cubes", "Cube.from_json"),
    ("orbits", "classify"),
    ("composition", "cube_from_forms"),
    ("composition", "form_class_index"),
    ("composition", "verify_triple_law"),
    ("centralizers", "sl2_fp"),
    ("centralizers", "stabilizer_bruteforce_fp"),
    ("centralizers", "cubic_stab_bruteforce_fp"),
    ("variants", "pgl2_fp"),
    ("variants", "quartic_stab_count_fp"),
)

# functions whose first argument is the key of a waste ratio: builds per
# distinct discriminant or prime
KEYED = {
    "quadforms.class_group": "quadforms.class_group.builds_per_D",
    "centralizers.sl2_fp": "centralizers.sl2_fp.builds_per_p",
    "variants.pgl2_fp": "variants.pgl2_fp.builds_per_p",
}


def metric_name(module: str, path: str) -> str:
    """ring.Poly.__mul__ -> ring.Poly.mul; other names are kept."""
    return f"{module}.{path}".replace("__mul__", "mul").replace("__add__", "add")


class Tracer:
    def __init__(self):
        self.calls = {metric_name(m, p): 0 for m, p in TRACED}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.keys = {name: set() for name in KEYED}
        self._open = []  # child-time accumulator of each open span

    def wrap(self, name, fn):
        calls, self_s, opened = self.calls, self.self_s, self._open
        keys = self.keys.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(args[0])
            opened.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = opened.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if opened:
                    opened[-1] += elapsed

        return traced

    def install(self):
        """Wrap every traced function at every binding in loaded cube_lab
        modules.  Call after the modules are imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cube_lab" or n.startswith("cube_lab.")) and m is not None]
        for module, path in TRACED:
            owner = sys.modules[f"cube_lab.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self.wrap(metric_name(module, path), fn)
            rebound = 0
            for mod in modules:
                for scope in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                    for key, value in list(vars(scope).items()):
                        target = value.__func__ if isinstance(value, staticmethod) else value
                        if target is fn:
                            new = staticmethod(wrapper) if isinstance(value, staticmethod) else wrapper
                            setattr(scope, key, new)
                            rebound += 1
            if not rebound:
                raise RuntimeError(f"no binding of {module}.{path} found")

    def metrics(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name, ratio in KEYED.items():
            distinct = len(self.keys[name])
            out[ratio] = (self.calls[name] / distinct if distinct else 0.0, "ratio")
        return out

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "keys": {k: sorted(v) for k, v in self.keys.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        t = cls()
        t.calls.update(data["calls"])
        t.self_s.update(data["self_s"])
        for k, v in data["keys"].items():
            t.keys[k] = set(v)
        return t
