"""The ROADMAP baseline rows, measured in the traced run.

- the relation-1 per-stage table of run_machine;
- arf at ranks 6, 12 and 18 on the sparse obstruction forms and on dense
  forms;
- dense Mat.det at n = 8 and 12 over F2[x] and Z[x];
- the default run_registry() per-check table;
- the cost of ``unilc2 machine --dump`` over the same command without it.

Every row is checked against an answer known in advance, and the outcome
is recorded on the given Tally.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import statistics
import time

from unilc2 import cli, complexes, forms, registry
from unilc2.rings import Mat, PolyF2, PolyInt

from .trace import Tracer
from .workloads import arf_class_of_bits, dense_form

X = PolyInt.x_power(1)

STAGE_TARGETS = [
    (complexes, "relation_fixture", "relation_fixture"),
    (complexes, "run_machine", "run_machine"),
    (complexes, "formation_to_complex", "formation_to_complex"),
    (complexes, "solve_right", "solve_right"),
    (complexes, "check_desymmetrization", "check_desymmetrization"),
    (complexes, "build_psi_hat", "build_psi_hat"),
    (complexes, "build_null_cobordism", "build_null_cobordism"),
    (complexes, "build_union", "build_union"),
    (complexes, "instant_obstruction", "instant_obstruction"),
    (forms, "arf", lambda form, *_: f"arf_rank{form.rank}"),
]


def _ms(fn, reps):
    """Median wall time of fn() in ms, and its last result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times), out


def relation1_stages(tally, reps=15):
    """Median per-stage ms of relation-1 runs at p = p2 = x, g = 1 (class
    [x^2] = [x]).  Only the stage functions are wrapped, so the overhead is
    a few spans per run."""
    want = arf_class_of_bits(0b100)
    per_rep = []
    with Tracer() as tracer:
        tracer.install_spans(STAGE_TARGETS)
        for rep in range(reps):
            tracer.case = rep
            res, expected = complexes.run_relation(1, X, PolyInt.one(), X)
            tally.record(res.arf == want and expected == want, "baseline relation-1 run")
    for rep in range(reps):
        totals = {}
        for _, _, case, name, t0, t1 in tracer.spans:
            if case == rep:
                totals[name] = totals.get(name, 0.0) + (t1 - t0) * 1000
        per_rep.append(totals)
    names = [t[2] for t in STAGE_TARGETS[:-1]] + ["arf_rank18", "arf_rank6"]
    return {
        f"baseline.r1.{name}.ms": statistics.median(t.get(name, 0.0) for t in per_rep)
        for name in names
    }


def _obstruction(k, p, g, p2=None):
    f, ncd, expected = complexes.relation_fixture(k, p, g, p2)
    c = complexes.formation_to_complex(f)
    union = complexes.build_union(
        c, complexes.build_psi_hat(c, ncd), complexes.build_null_cobordism(c, ncd)
    )
    return complexes.instant_obstruction(union), expected


def arf_rows(tally):
    r1, want1 = _obstruction(1, X, PolyInt.one(), X)
    r3, want3 = _obstruction(3, X, X)
    rng = random.Random(20260808)
    dense = {rank: dense_form(rng, rank) for rank in (6, 12, 18)}
    rows = {}
    cases = [
        ("sparse.r6", r1.reduced, want1, 20),
        ("sparse.r12", r3.big, want3, 10),
        ("sparse.r18", r1.big, want1, 10),
        ("dense.r6", *dense[6], 20),
        ("dense.r12", *dense[12], 5),
        ("dense.r18", *dense[18], 1),  # seconds per call
    ]
    for label, form, want, reps in cases:
        ms, got = _ms(lambda: forms.arf(form), reps)
        tally.record(got == want, f"baseline arf {label}")
        rows[f"baseline.arf.{label}.ms"] = ms
    return rows


def _triangular_product(rng, n, ring, entry):
    """L*U with unit lower L and upper U; its determinant is the product of
    U's diagonal."""
    one, zero = ring.one(), ring.zero()
    diag = [entry(rng) or one for _ in range(n)]
    lo = [[one if i == j else entry(rng) if i > j else zero for j in range(n)] for i in range(n)]
    up = [[diag[i] if i == j else entry(rng) if i < j else zero for j in range(n)] for i in range(n)]
    det = one
    for d in diag:
        det = det * d
    return Mat(lo, ring) * Mat(up, ring), det


def det_rows(tally):
    rng = random.Random(20260809)
    entries = {
        "f2": (PolyF2, lambda r: PolyF2(r.getrandbits(2))),
        "zx": (PolyInt, lambda r: PolyInt((r.randint(-1, 1), r.randint(-1, 1)))),
    }
    rows = {}
    for tag, (ring, entry) in entries.items():
        for n, reps in ((8, 10), (12, 3)):
            m, want = _triangular_product(rng, n, ring, entry)
            ms, got = _ms(m.det, reps)
            tally.record(got == want, f"baseline det {tag} n={n}")
            rows[f"baseline.det.{tag}.n{n}.ms"] = ms
    return rows


def registry_rows(tally):
    """One default run_registry(): seconds per check and in total."""
    t0 = time.perf_counter()
    report = registry.run_registry()
    rows = {"registry.verify_s": time.perf_counter() - t0}
    for cid, _, ok, detail, secs in report.results:
        tally.record(ok, f"registry {cid}: {detail}")
        rows[f"registry.{cid}.s"] = secs
    return rows


def cli_dump_ratio(tally, out_dir, reps=5):
    """Wall time of ``machine --relation 1 ... --dump DIR`` over the same
    command without --dump, medians of alternating runs."""
    argv = ["machine", "--relation", "1", "--p", "x", "--p2", "x", "--g", "1"]
    dump_dir = out_dir / "dump"
    plain, dump = [], []
    try:
        for _ in range(reps):
            for args, times in ((argv, plain), (argv + ["--dump", str(dump_dir)], dump)):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(args)
                times.append(time.perf_counter() - t0)
                tally.record(code == 0, f"cli {' '.join(args)} exit {code}")
    finally:
        shutil.rmtree(dump_dir, ignore_errors=True)
    return {"cli.machine_dump_over_plain": statistics.median(dump) / statistics.median(plain)}
