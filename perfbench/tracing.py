"""In-memory span tracer for asmice's modules, and the per-layer metrics.

``Tracer.install()`` wraps the public functions and methods listed in
``TARGETS``.  A module function is replaced at every binding of the same
object in any ``asmice`` module, so by-name imports (``det_exact`` in
``chain``, ``dets``, ``izergin`` and ``verify``; ``divide_exact`` in
``matrices``, ``izergin``, ``sixvertex`` and ``verify``; ``transfer_count``
in ``cli`` and ``formulas``) are seen too.  A method is replaced under every
name of its class that refers to it, so aliases such as
``__rmul__ = __mul__`` are seen.  ``uninstall()`` restores every original.

Each call becomes one span: name, parent span, start, end, whether it
returned, and a work figure (term pairs for ``LaurentPoly.__mul__``, n for
``transfer_count``).  Spans live in flat arrays until the end of the run;
a layer is the module a span's function belongs to, and self time is a
span's duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

# (module, function names, {class: method names}) per traced layer.
# Generators (enumerate_asms, dwbc_states) are left out: a span around the
# call would close before the generator did any work.
TARGETS = (
    ("transfer", ("transfer_count",), {}),
    ("intpoly", (), {"IntPoly": ("__add__", "__sub__", "__rsub__", "__mul__",
                                 "__pow__", "__call__", "__eq__",
                                 "divide_exact")}),
    ("formulas", ("a_formula", "a2_formula", "a3_formula", "b_chain"), {}),
    ("asm", ("count_asms_brute", "x_enumerate_brute"), {}),
    ("izergin", ("ik_z", "ik_matrix"), {}),
    ("sixvertex", ("z_brute", "lemma_recursion_check", "lemma_degree_check",
                   "vertex_weights"), {}),
    ("ybe", ("ybe_check",), {}),
    ("laurent", ("divide_exact",), {"LaurentPoly": ("__mul__",),
                                    "RatFunc": ("__eq__",)}),
    ("matrices", ("det_exact",), {}),
    ("dets", ("cauchy_matrix", "cauchy_det_closed", "s_matrix",
              "s_det_product", "s_det_closed", "s_matrix_bivariate",
              "s_det_closed_bivariate", "general_x_matrix",
              "antidiagonal_block_det"), {}),
    ("cyclotomic", ("cyclotomic_embed",),
     {"Cyclotomic": ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__truediv__", "__rtruediv__", "__pow__", "inverse")}),
    ("brackets", ("qdiff", "bracket", "bracket_ratio"),
     {"BracketProduct": ("__mul__", "__truediv__", "__pow__",
                         "limit_at_one", "expand_ratfunc")}),
    ("chain", ("q_fourth_root", "tau_poly", "ik_eps_ratfunc",
               "ik_eps_product", "z_half_eps_product", "z_half_eps_brute",
               "half_spec_value", "ean_normalize", "a_via_chain"), {}),
)


def _mul_term_pairs(a, b):
    other = getattr(b, "terms", None)
    return len(a.terms) * (len(other) if other is not None else 1)


def _first_arg(n, *_args, **_kwargs):
    return n


#: span name -> work figure computed from the call's arguments
WORK = {
    "laurent.LaurentPoly.__mul__": _mul_term_pairs,
    "transfer.transfer_count": _first_arg,
}


class Tracer:
    """Spans of one traced pass, kept in flat arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.ok = bytearray()
        self._stack = [-1]
        self._restore = []

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        """fn wrapped so that each call records one span called name."""
        nid = self._intern(name)
        weigh = WORK.get(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        work, ok, stack = self.work, self.ok, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            work.append(weigh(*args, **kwargs) if weigh else 0.0)
            ok.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            ok[sid] = 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.span_name = name
        return traced

    def span(self, name, fn):
        """Run fn() inside one span called name; returns its result."""
        return self.wrap(name, fn)()

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if key == "asmice" or key.startswith("asmice.")]
        for modname, funcs, classes in TARGETS:
            module = importlib.import_module(f"asmice.{modname}")
            for fname in funcs:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{modname}.{fname}", original)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
            for cname, methods in classes.items():
                cls = getattr(module, cname)
                for meth in methods:
                    original = cls.__dict__[meth]
                    wrapper = self.wrap(f"{modname}.{cname}.{meth}", original)
                    for attr, value in list(vars(cls).items()):
                        if value is original:
                            self._restore.append((cls, attr, original))
                            setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---------- analysis ----------

    def aggregate(self):
        """Per span name: calls, total, self, busy (outermost of its
        layer), returned calls and work, all summed."""
        n = len(self.name_id)
        child = [0.0] * n
        layer_of = [name.split(".", 1)[0] for name in self.names]
        stats = defaultdict(lambda: defaultdict(float))
        # outer[sid]: whether no ancestor of sid shares its layer
        outer = bytearray(n)
        for sid in range(n):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur
            layer = layer_of[self.name_id[sid]]
            q = p
            while q >= 0 and layer_of[self.name_id[q]] != layer:
                q = self.parent[q]
            outer[sid] = q < 0
        for sid in range(n):
            s = stats[self.names[self.name_id[sid]]]
            dur = self.end[sid] - self.start[sid]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[sid]
            s["ok"] += self.ok[sid]
            s["work"] += self.work[sid]
            if outer[sid]:
                s["busy_s"] += dur
        return stats

    def total_s(self, name, work):
        """Summed duration of the spans called name with this work figure."""
        nid = self._name_ids.get(name)
        return sum(self.end[sid] - self.start[sid]
                   for sid in range(len(self.name_id))
                   if self.name_id[sid] == nid and self.work[sid] == work)

    def write(self, path):
        """Spans as tab-separated rows, span id = row number from 0:
        parent, name id, start and duration in microseconds from the first
        span, returned, work.  Header lines give the name of each id."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as out:
            for nid, name in enumerate(self.names):
                out.write(f"#name\t{nid}\t{name}\n")
            out.write("#parent\tname\tstart_us\tdur_us\tok\twork\n")
            for sid in range(len(self.name_id)):
                start = self.start[sid]
                out.write(f"{self.parent[sid]}\t{self.name_id[sid]}\t"
                          f"{(start - t0) * 1e6:.1f}\t"
                          f"{(self.end[sid] - start) * 1e6:.1f}\t"
                          f"{self.ok[sid]}\t{self.work[sid]:g}\n")
