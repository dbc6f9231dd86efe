"""In-memory spans around the program's public functions, for the traced run.

`Tracer.install()` wraps the public functions of the twelve `gitpol` modules
and the main methods of their classes.  A module-level function is replaced
under every name that holds it in any `gitpol` module, because a module that
did `from .exact import kron_identity_right` keeps its own reference and
would otherwise call the unwrapped function.  `uninstall()` restores every
original.

A span records its name, start, end, parent span and op id; spans live in
flat arrays and are written out once, at the end (`write`).  Self time is a
span's duration minus the durations of its direct children (calls nest
properly on one thread, so the children never overlap).
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from time import perf_counter

MODULES = ("exact", "poly", "setting", "polarization", "constants", "stability",
           "embedding", "certifier", "regions", "finemoduli", "serialize", "cli")

# span names that differ from "<module>.<function>"
ALIASES = {
    "exact.kron_identity_left": "exact.kron",
    "exact.kron_identity_right": "exact.kron",
    "setting.build_line_bundle_system": "setting.build_system",
    "stability.destabilizer_search": "stability.search",
    "embedding.gamma_injectivity_check": "embedding.injectivity",
    "poly.poly_gcd": "poly.gcd",
    "exact.RatMatrix.__mul__": "exact.mul",
    "poly.Poly.parse": "poly.parse",
}

# module-level functions left unwrapped: scalar coercions called per matrix
# entry, where a span would cost more than the call
SKIP = {"exact.rat", "exact.rat_str"}

# class methods wrapped besides the module-level functions; accessors that
# only read a field are left out, since a span would cost more than the call
METHODS = {
    "exact": {"RatMatrix": (
        "__mul__", "__add__", "__sub__", "__neg__", "__eq__", "scale", "matvec",
        "transpose", "hstack", "vstack", "submatrix", "columns", "is_zero",
        "rank", "rank_at_least", "rref", "kernel_basis", "column_space_basis",
        "solve_right", "solve_left", "inverse", "in_column_span", "to_json",
        "from_json", "zeros", "identity", "from_rows", "column", "from_columns")},
    "poly": {"Poly": (
        "parse", "__mul__", "__add__", "__sub__", "__neg__", "scale",
        "divmod_single", "divides", "exact_div", "eval", "substitute",
        "coeff_vector", "from_coeff_vector", "__str__")},
    "setting": {"ProblemSpec": ("to_json", "from_json"),
                "CompositionSystem": ("validate",),
                "MorphismElement": ("from_polynomials", "to_polynomials", "to_json",
                                    "from_json", "__add__", "scale", "__eq__"),
                "GroupElement": ("identity", "__eq__")},
    "polarization": {"Polarization": ("make", "to_json", "from_json"),
                     "Param": ("polarization", "discriminant_affine")},
    "stability": {"SubspaceFamily": ("to_json", "from_json"),
                  "StabilityVerdict": ("to_json", "from_json")},
    "embedding": {"ZReport": ("to_json",)},
    "certifier": {"CertifyVerdict": ("to_json",), "Region2D": ("to_json",)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.enabled = False
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Run one operation as a root span named 'op'."""
        self.op_id = op_id
        self.enabled = True
        idx = self.begin(self._id("op"))
        try:
            return fn()
        finally:
            self.finish(idx)
            self.enabled = False

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        name_id = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------

    def _result_hooks(self):
        def membership(ok):
            self.count("constants.membership.true", bool(ok))

        def verdict(v):
            self.count("stability.verdicts")
            self.count("stability.witnesses", v.witness_family is not None)

        def search(v):
            verdict(v)
            self.count("stability.budget_used", v.budget_used)

        return {"constants.membership": membership,
                "stability.search": search,
                "stability.decide_pencil": verdict}

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._result_hooks()
        mods = {m: importlib.import_module(f"gitpol.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                span = ALIASES.get(f"{mname}.{attr}", f"{mname}.{attr}")
                if span not in SKIP:
                    replaced[id(obj)] = self.wrap(span, obj, hooks.get(span))
            for cname, attrs in METHODS.get(mname, {}).items():
                cls = getattr(mod, cname)
                for attr in attrs:
                    raw = inspect.getattr_static(cls, attr)
                    full = f"{mname}.{cname}.{attr}"
                    span = ALIASES.get(full, f"{mname}.{attr.strip('_')}")
                    if isinstance(raw, staticmethod):
                        self._set(cls, attr, staticmethod(self.wrap(span, raw.__func__)))
                    else:
                        self._set(cls, attr, self.wrap(span, raw))
        # rebind every name that holds a wrapped function, in every module
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    self._set(mod, attr, replaced[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        names = self.names
        for i in range(n):
            row = out.setdefault(names[self.name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def rank_at_least_settled_mod_p(self) -> tuple[int, int]:
        """(calls with no nested exact.rank span, all rank_at_least calls)."""
        ral = self._ids.get("exact.rank_at_least")
        rank = self._ids.get("exact.rank")
        if ral is None:
            return 0, 0
        fell_back = set()
        for i in range(len(self.start)):
            if self.name[i] == rank and self.parent[i] >= 0 \
                    and self.name[self.parent[i]] == ral:
                fell_back.add(self.parent[i])
        calls = sum(1 for x in self.name if x == ral)
        return calls - len(fell_back), calls

    def write(self, path: str) -> None:
        """Span table as JSON lines: a header with the names, then one row
        [name, start, end, parent, op] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent", "op"]}))
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}]\n")
