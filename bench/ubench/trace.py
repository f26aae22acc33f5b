"""Outside-in tracing: wrap the package's public functions at runtime.

A Tracer replaces functions and methods with wrappers that record a span
per call: (span id, parent span id, case id, name, start, end).  Spans are
kept in memory and summarised (calls, inclusive seconds, self seconds) when
the run ends.  Nothing under src/ changes; a module-level function is
replaced in every unilc2 module that imported it, so calls made from other
modules are seen too.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

from unilc2 import complexes, formations, forms, rim, rings, witt
from unilc2.rings import C2Poly, Mat, PolyF2, PolyInt


def _det_name(m, *_):
    return "rings.Mat.det.large" if m.rows > 4 else "rings.Mat.det.small"


def _arf_name(form, *_):
    return "forms.arf.rank_le6" if form.rank <= 6 else "forms.arf.rank_gt6"


# (owner, attribute, span name or a function of the call's arguments)
LAYER_TARGETS = [
    (Mat, "__mul__", "rings.Mat.mul"),
    (Mat, "det", _det_name),
    (Mat, "adjugate", "rings.Mat.adjugate"),
    (rings, "solve_right", "rings.solve_right"),
    (Mat, "i_minus", "rings.convert.i_minus"),
    (Mat, "i_plus", "rings.convert.i_plus"),
    (Mat, "mod2", "rings.convert.mod2"),
    (Mat, "to_c2", "rings.convert.to_c2"),
    (forms, "arf", _arf_name),
    (forms, "symplectic_reduce", "forms.symplectic_reduce"),
    (formations, "make_M", "formations.make_M"),
    (formations, "verify_poincare", "formations.verify_poincare"),
    (formations, "is_graph", "formations.is_graph"),
    (formations, "verify_formation_iso", "formations.verify_formation_iso"),
    (complexes, "relation_fixture", "complexes.relation_fixture"),
    (complexes, "run_machine", "complexes.run_machine"),
    (complexes, "formation_to_complex", "complexes.formation_to_complex"),
    (complexes, "check_desymmetrization", "complexes.check_desymmetrization"),
    (complexes, "build_psi_hat", "complexes.build_psi_hat"),
    (complexes, "build_null_cobordism", "complexes.build_null_cobordism"),
    (complexes, "build_union", "complexes.build_union"),
    (complexes, "instant_obstruction", "complexes.instant_obstruction"),
    (rim, "compute_chi_prime", "rim.compute_chi_prime"),
    (rim, "boundary_steps", "rim.boundary_steps"),
    (witt, "replay", "witt.replay"),
    (witt, "apply_iso_M0", "witt.apply_iso_M0"),
]

# Ring multiplications are only counted: a span per product would swamp
# every other span's time.
COUNT_TARGETS = [
    (PolyInt, "__mul__", "rings.PolyInt.mul"),
    (PolyF2, "__mul__", "rings.PolyF2.mul"),
    (C2Poly, "__mul__", "rings.C2Poly.mul"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.iso_witnesses = []  # (p, g) of every apply_iso_M0 call
        self.case = -1
        self.active = True  # calls made while False run unrecorded
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    # -- installation

    def _replace(self, owner, attr, wrapper):
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        original = getattr(owner, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "unilc2" or name.startswith("unilc2.")) and mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install_spans(self, targets=LAYER_TARGETS):
        for owner, attr, name in targets:
            self._replace(owner, attr, self._span_wrapper(getattr(owner, attr), name))

    def install_counts(self, targets=COUNT_TARGETS):
        for owner, attr, name in targets:
            self._replace(owner, attr, self._count_wrapper(getattr(owner, attr), name))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- wrappers

    def _span_wrapper(self, fn, name):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        fixed = name if isinstance(name, str) else None
        witnesses = self.iso_witnesses if fixed == "witt.apply_iso_M0" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = fixed or name(*args)
            if witnesses is not None:
                witnesses.append((args[1], args[2]))
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.case, label, t0, t1))

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the part its child spans cover).  No span name
        nests inside itself in this package, so inclusive sums do not
        double count."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for sid, _, _, name, t0, t1 in self.spans:
            d = t1 - t0
            calls[name] += 1
            incl[name] += d
            own[name] += d - child.get(sid, 0.0)
        return calls, incl, own

    def child_seconds(self, parent_name, child_prefix):
        """Seconds spent in spans named child_prefix* whose direct parent is
        a span named parent_name."""
        names = {sid: name for sid, _, _, name, _, _ in self.spans if name == parent_name}
        return sum(
            t1 - t0
            for _, parent, _, name, t0, t1 in self.spans
            if parent in names and name.startswith(child_prefix)
        )

    def dump(self, path, extra):
        """Write the spans (times relative to the first span, in seconds)
        and the given summary fields as one JSON file."""
        t_base = min((s[4] for s in self.spans), default=0.0)
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [sid, parent, case, index[name], round(t0 - t_base, 7), round(t1 - t_base, 7)]
            for sid, parent, case, name, t0, t1 in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                dict(extra, span_fields=["id", "parent", "case", "name", "start_s", "end_s"],
                     names=names, spans=rows),
                fh,
                separators=(",", ":"),
            )


def layer_metrics(tracer: Tracer, count_tracer: Tracer) -> dict:
    """The per-layer metrics of one traced phase plus the exact ring
    multiplication counts of a fixed set of cases."""
    calls, incl, own = tracer.summary()
    m = {
        "rings.Mat.mul.calls": calls["rings.Mat.mul"],
        "rings.Mat.mul.self_s": own["rings.Mat.mul"],
        "rings.convert.s": sum(v for k, v in incl.items() if k.startswith("rings.convert.")),
    }
    for name in ("rings.Mat.det.large", "rings.Mat.det.small", "rings.Mat.adjugate",
                 "rings.solve_right", "forms.arf.rank_le6", "forms.arf.rank_gt6",
                 "formations.verify_formation_iso", "witt.replay", "witt.apply_iso_M0"):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = incl[name]
    for name in ("formations.make_M", "formations.verify_poincare", "formations.is_graph",
                 "complexes.relation_fixture", "complexes.formation_to_complex",
                 "complexes.check_desymmetrization", "complexes.build_psi_hat",
                 "complexes.build_null_cobordism", "complexes.build_union",
                 "complexes.instant_obstruction", "rim.compute_chi_prime", "rim.boundary_steps"):
        m[name + ".s"] = incl[name]
    sr = incl["forms.symplectic_reduce"]
    m["forms.symplectic_reduce.s"] = sr
    m["forms.symplectic_reduce.self_s"] = own["forms.symplectic_reduce"]
    m["forms.symplectic_reduce.det_share"] = (
        tracer.child_seconds("forms.symplectic_reduce", "rings.Mat.det") / sr if sr else 0.0
    )
    runs = calls["complexes.run_machine"]
    m["complexes.desym_checks_per_run"] = (
        calls["complexes.check_desymmetrization"] / runs if runs else 0.0
    )
    iso = tracer.iso_witnesses
    m["witt.apply_iso_M0.distinct_frac"] = len(set(iso)) / len(iso) if iso else 0.0
    for ring in ("PolyInt", "PolyF2", "C2Poly"):
        m[f"rings.{ring}.mul.count"] = count_tracer.counts[f"rings.{ring}.mul"]
    return m
