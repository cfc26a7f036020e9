"""Outside-in tracer: spans around calls into the public functions of
each ``cideals`` module, recorded from the benchmark's own code.

Each boundary is wrapped in every ``cideals`` module namespace that
binds it (``core`` is imported by name into ``cideal`` and
``structure``, for example), so calls between modules are seen too.
A span's self time is its duration minus the time its child spans
cover; the time of an op outside every boundary is the untraced
remainder.  Spans live in memory and are written out once, at exit.

Scalar arithmetic is counted by a separate :class:`ScalarCounter` in
its own pass, so its wrappers never inflate span self times.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

# (module, attribute) per boundary; "Class.method" patches the class.
BOUNDARIES = (
    ("cideal", "is_cideal"),
    ("cideal", "line_cideal"),
    ("cideal", "verify_certificate"),
    ("cideal", "is_cideal_by_scan"),
    ("cideal", "characteristic_ideals"),
    ("structure", "classify_line_cideals"),
    ("structure", "supersolvable_flag"),
    ("structure", "structure_profile"),
    ("structure", "frattini"),
    ("structure", "radicals"),
    ("structure", "abelian_socle"),
    ("lattice", "enum_subalgebras"),
    ("lattice", "enum_ideals"),
    ("lattice", "maximal_subalgebras"),
    ("lattice", "maximal_nilpotent_subalgebras"),
    ("lattice", "cartan_subalgebras"),
    ("lattice", "core"),
    ("lattice", "one_dim_ideals"),
    ("liealg", "LieAlgebra.bracket"),
    ("liealg", "LieAlgebra.span_product"),
    ("liealg", "LieAlgebra.transporter"),
    ("liealg", "quotient_algebra"),
    ("liealg", "restricted_algebra"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "Subspace.reduce"),
    ("linalg", "Subspace.__add__"),
    ("linalg", "Subspace.__and__"),
    ("linalg", "char_poly"),
    ("linalg", "eigenspace"),
    ("fields", "poly_roots_in_field"),
    ("catalog", "parse"),
    ("catalog", "random_solvable"),
    ("harness", "run_suite"),
)
MODULES = ("fields", "linalg", "liealg", "lattice", "cideal", "structure", "catalog", "harness")
SCALAR_METHODS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "inverse")
ENUMS = ("lattice.enum_subalgebras", "lattice.enum_ideals")
DECIDERS = ("cideal.is_cideal", "cideal.line_cideal")
# The rungs of the is_cideal ladder, as CIdealVerdict.method reports them.
RUNGS = (
    "ideal_is_trivially_cideal",
    "line_rule",
    "exhaustive_enumeration",
    "characteristic_lattice",
    "derived_term",
)
SPAN_CAP = 100_000  # spans kept for the trace file; aggregates see every call


def metric_name(module: str, attr: str) -> str:
    """``liealg.bracket`` for ``LieAlgebra.bracket``; classes other than
    the algebra keep their name (``linalg.Subspace.reduce``)."""
    if attr.startswith("LieAlgebra."):
        attr = attr.split(".", 1)[1]
    return f"{module}.{attr}"


def _package_modules(package: str):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Span recorder.  ``install`` wraps the boundaries; ``root`` opens an
    op or set-up span; ``metrics`` reduces what was recorded."""

    def __init__(self, package: str = "cideals"):
        self.package = package
        self.names = []
        self.calls = []
        self.self_s = []
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.pairs = {}  # (parent index, child index) -> calls
        self.absent = []
        self.enum_returned = 0
        self.decide_s = 0.0
        self.verify_in_decide_s = 0.0
        self.rungs = dict.fromkeys(RUNGS, 0)
        self.unknown = 0
        self.root_s = {"op": 0.0, "setup": 0.0}
        self.root_self_s = {"op": 0.0, "setup": 0.0}
        self.root_index = {kind: self._index(f"bench.{kind}") for kind in self.root_s}

    # -- recording ---------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _open(self, idx):
        parent = self.stack[-1] if self.stack else None
        self.next_id += 1
        frame = [idx, self.next_id, 0.0, parent]
        self.stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        self.stack.pop()
        idx, sid, child_s, parent = frame
        dur = t1 - t0
        self.calls[idx] += 1
        self.self_s[idx] += dur - child_s
        if parent is not None:
            parent[2] += dur
            key = (parent[0], idx)
            self.pairs[key] = self.pairs.get(key, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[1] if parent else 0, idx, t0, t1))
        else:
            self.dropped += 1
        return dur

    def _wrap(self, name, fn):
        idx = self._index(name)
        tracer = self
        perf = time.perf_counter
        observe = self._observer(name)

        def traced(*args, **kwargs):
            frame = tracer._open(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame, t0, perf())
            if observe is not None:
                observe(result, frame[3], dur)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observer(self, name):
        """Derived counts taken from return values at a boundary."""
        if name in ENUMS:
            def enum(result, parent, dur):
                self.enum_returned += len(result)
            return enum
        if name in DECIDERS:
            def decide(verdict, parent, dur):
                if parent is not None and self.names[parent[0]] in DECIDERS:
                    return  # is_cideal delegating to line_cideal: counted once
                self.decide_s += dur
                method = getattr(verdict, "method", None)
                if method in self.rungs:
                    self.rungs[method] += 1
                if getattr(verdict, "answer", None) == "unknown":
                    self.unknown += 1
            return decide
        if name == "cideal.verify_certificate":
            def verify(result, parent, dur):
                frame = parent
                while frame is not None:
                    if self.names[frame[0]] in DECIDERS:
                        self.verify_in_decide_s += dur
                        return
                    frame = frame[3]
            return verify
        return None

    def install(self):
        """Wrap every boundary that exists; record the ones that do not."""
        modules = _package_modules(self.package)
        for module, attr in BOUNDARIES:
            name = metric_name(module, attr)
            home = sys.modules.get(f"{self.package}.{module}")
            owner_name, _, member = attr.rpartition(".")
            owner = home if not owner_name else getattr(home, owner_name, None)
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                self._index(name)
                continue
            wrapped = self._wrap(name, original)
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        return self

    def root(self, kind: str, fn, *args):
        """Run ``fn(*args)`` inside a root span of kind "op" or "setup"."""
        frame = self._open(self.root_index[kind])
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.root_self_s[kind] += (t1 - t0) - frame[2]
            self.root_s[kind] += self._close(frame, t0, t1)

    # -- reduction ---------------------------------------------------------

    def end_setup(self):
        """Mark the end of set-up: later metrics count the ops alone,
        except the catalog boundaries, which only set-up calls."""
        self.setup = (list(self.calls), list(self.self_s), dict(self.pairs))
        self.enum_returned = self.unknown = 0
        self.decide_s = self.verify_in_decide_s = 0.0
        self.rungs = dict.fromkeys(RUNGS, 0)

    def metrics(self) -> dict:
        by_name = {n: i for i, n in enumerate(self.names)}
        s_calls, s_self, s_pairs = self.setup
        out = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for module, attr in BOUNDARIES:
            name = metric_name(module, attr)
            i = by_name[name]
            op_self = self.self_s[i] - s_self[i]
            module_self[module] += op_self
            setup_phase = module == "catalog"
            out[f"{name}.calls"] = s_calls[i] if setup_phase else self.calls[i] - s_calls[i]
            out[f"{name}.self_s"] = s_self[i] if setup_phase else op_self
        for module, value in module_self.items():
            out[f"{module}.self_s"] = value

        def under(parents, child):
            c = by_name[child]
            return sum(self.pairs.get((by_name[p], c), 0) - s_pairs.get((by_name[p], c), 0)
                       for p in parents)

        def ratio(a, b):
            return a / b if b else 0.0

        out["lattice.enum.yield"] = ratio(
            self.enum_returned, under(ENUMS, "liealg.span_product"))
        out["lattice.core.transporters_per_call"] = ratio(
            under(["lattice.core"], "liealg.transporter"), out["lattice.core.calls"])
        out["lattice.one_dim_ideals.brackets_per_call"] = ratio(
            under(["lattice.one_dim_ideals"], "liealg.bracket"),
            out["lattice.one_dim_ideals.calls"])
        out["cideal.verify_share"] = ratio(self.verify_in_decide_s, self.decide_s)
        for rung, count in self.rungs.items():
            out[f"cideal.rung.{rung}"] = count
        out["cideal.unknown"] = self.unknown
        out["trace.wall_s"] = self.root_s["op"]
        out["trace.setup_s"] = self.root_s["setup"]
        out["trace.untraced_s"] = self.root_self_s["op"]
        return out

    def write(self, path: str):
        """All kept spans, with parent ids, as one JSON document."""
        doc = {
            "names": self.names,
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "dropped": self.dropped,
            "absent": self.absent,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


class ScalarCounter:
    """Counts calls of the ``Scalar`` arithmetic methods."""

    def __init__(self):
        self.counter = itertools.count()
        self.absent = []

    def install(self):
        fields = sys.modules.get("cideals.fields")
        scalar = getattr(fields, "Scalar", None)
        for name in SCALAR_METHODS:
            original = getattr(scalar, name, None) if scalar is not None else None
            if original is None:
                self.absent.append(f"fields.Scalar.{name}")
                continue
            setattr(scalar, name, self._counted(original))
        return self

    def _counted(self, fn):
        tick = self.counter.__next__

        def counted(*args):
            tick()
            return fn(*args)

        return counted

    def total(self) -> int:
        """Calls counted so far; read once, at the end of the pass."""
        return next(self.counter)
