"""Timed and traced runs of one workload.

One process and one thread do all the work; the only other processes are
the fresh interpreters that time set-up, started one at a time and waited
for.  End-to-end metrics come from runs with tracing off.  A traced run
times the workload untraced for half the time, then runs the same cases
traced; it reports the ratio of the two rates as the tracing overhead and
adds the per-layer metrics and the ROADMAP baseline rows.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import baseline
from .trace import Tracer, layer_metrics
from .workloads import WORKLOADS, inputs_sha256

SETUP_REPS = 5

# Run in a fresh interpreter: import the package, generate the inputs.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from ubench.workloads import WORKLOADS
WORKLOADS[sys.argv[3]].generate(int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def run_case(workload, case, tally, index, tracer=None) -> float:
    """Run and check one case; an exception is a failed case, not an abort.
    Returns the wall time of the operation alone, without the check, which
    a tracer does not record either."""
    if tracer is not None:
        tracer.case, tracer.active = index, True
    t0 = time.perf_counter()
    try:
        result = workload.run(case)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        ok = workload.check(case, result)
        why = "wrong answer"
    except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
        dt = time.perf_counter() - t0
        ok, why = False, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    tally.record(ok, f"case {index} ({case.kind}): {why}")
    return dt


def warm_up(workload, cases, tally) -> int:
    """Run cases from the start until every kind has run once, so lazy
    set-up is done before timing.  Returns the index to time from: the next
    block boundary, so that every block holds the workload's whole mix."""
    kinds = {c.kind for c in cases}
    seen = set()
    i = 0
    while seen != kinds:
        run_case(workload, cases[i], tally, i)
        seen.add(cases[i].kind)
        i += 1
    return -(-i // workload.block_cases) * workload.block_cases


# The machine this runs on is shared.  For stretches of seconds to minutes
# it runs the same code 30-70 % slower, and how much of a run such
# stretches cover varies from run to run, so raw times spread by more than
# any useful bound.  The end-to-end timings are therefore scaled to a fixed
# machine speed: before and after every block of cases the runner times
# `machine_probe`, a fixed piece of pure-Python work that does not use the
# package, and each block's times are multiplied by REF_PROBE_S over the
# mean of the two readings.  A change to the package moves the scaled
# figures exactly as it moves the raw ones; a slower or faster machine
# moves them less, though not to nothing (the package and the probe do not
# slow down by quite the same factor).  The raw figures are printed beside
# them.  Rates are taken over operation time, leaving out the checks and
# the probes.
REF_PROBE_S = 0.007  # about its fastest reading on a 2-core 2.1 GHz Xeon VM

_PROBE_INTS = [(i * 7919) % 100003 for i in range(40000)]
_PROBE_RNG = random.Random(5)
_PROBE_MAT = [[(_PROBE_RNG.randint(-1, 1), _PROBE_RNG.randint(-1, 1)) for _ in range(7)]
              for _ in range(7)]


def _probe_det(row, mask, memo):
    """Cofactor expansion over tuple polynomials: the package's kind of
    work (small tuples, dict memo, integer arithmetic) in a frozen copy."""
    if row == len(_PROBE_MAT):
        return (1,)
    if mask in memo:
        return memo[mask]
    acc, sign, m = [0, 0, 0, 0, 0, 0, 0, 0], 1, mask
    while m:
        j = (m & -m).bit_length() - 1
        m &= m - 1
        sub = _probe_det(row + 1, mask & ~(1 << j), memo)
        for a, x in enumerate(_PROBE_MAT[row][j]):
            for b, y in enumerate(sub):
                acc[a + b] += sign * x * y
        sign = -sign
    memo[mask] = tuple(acc[: len(_PROBE_MAT) - row + 1])
    return memo[mask]


def machine_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that does not use the
    package: a reading of how fast the shared machine runs just now.  The
    garbage collector is off meanwhile, so the reading does not depend on
    how many objects the process holds."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        _probe_det(0, (1 << len(_PROBE_MAT)) - 1, {})
        {v: i for i, v in enumerate(sorted(_PROBE_INTS)) if i % 4 == 0}
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Phase:
    times: list  # seconds per case, operation only
    correct: int
    elapsed: float
    blocks: list  # (correct cases, case times, mean probe seconds) per whole block
    stop: int  # index after the last case run

    def scaled_rate(self) -> float:
        """Correct cases per second of operation time (checks and probes
        left out) at the reference machine speed."""
        return sum(b[0] for b in self.blocks) / sum(self.scaled_times())

    def scaled_times(self) -> list:
        """Case times at the reference machine speed."""
        return [t * REF_PROBE_S / b[2] for b in self.blocks for t in b[1]]


def _p90(times):
    return statistics.quantiles(times, n=10)[8]


def timed_phase(workload, cases, tally, start, seconds=None, stop=None, tracer=None) -> Phase:
    """Run cases in order from `start`, wrapping round the input list, for
    `seconds` (at least one whole block) or up to index `stop`."""
    size = workload.block_cases
    times, blocks = [], []
    i = start
    probe = machine_probe()
    t_start = time.perf_counter()
    failed_start = failed_block = tally.failed
    while True:
        times.append(run_case(workload, cases[i % len(cases)], tally, i, tracer))
        i += 1
        now = time.perf_counter()
        if (i - start) % size == 0:
            ok = size - (tally.failed - failed_block)
            after = machine_probe()
            blocks.append((ok, times[-size:], (probe + after) / 2))
            probe, failed_block = after, tally.failed
        if i == stop or (stop is None and blocks and now - t_start >= seconds):
            break
    return Phase(times, len(times) - (tally.failed - failed_start), now - t_start, blocks, i)


def measure_setup(root: Path, workload: str, seed: int, reps: int = SETUP_REPS):
    """Set-up seconds in `reps` fresh interpreters, each importing unilc2
    and generating the inputs, as (raw, scaled to the reference machine
    speed by probes taken just before and after); every child is waited
    for."""
    out = []
    for _ in range(reps):
        before = machine_probe()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(root / "src"),
             str(root / "bench"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=root,
        )
        raw = float(proc.stdout.strip().splitlines()[-1])
        out.append((raw, raw * 2 * REF_PROBE_S / (before + machine_probe())))
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path, *args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path) -> dict:
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(root: Path, name: str, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics, a sample count for each and
    the Tally."""
    workload = WORKLOADS[name]
    tally = Tally()
    cases = workload.generate(seed)
    setups = measure_setup(root, name, seed)
    start = warm_up(workload, cases, tally)
    ph = timed_phase(workload, cases, tally, start, seconds)
    scaled = ph.scaled_times()
    p90 = _p90(scaled)
    metrics = {
        "cases_per_s": ph.scaled_rate(),
        "case_ms_p50": statistics.median(scaled) * 1000,
        "case_ms_p90": p90 * 1000,
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    probes = [b[2] for b in ph.blocks]
    speed = (f"{len(ph.blocks)} blocks of {workload.block_cases} cases, machine probe "
             f"{min(probes) * 1000:.2f}-{max(probes) * 1000:.2f} ms against {REF_PROBE_S * 1000:g}")
    samples = {
        "cases_per_s": f"{speed}; raw {ph.correct / ph.elapsed:.4g} per wall second "
                       f"({ph.correct} correct in {ph.elapsed:.2f} s)",
        "case_ms_p50": f"n={len(scaled)}; raw {statistics.median(ph.times) * 1000:.4g}",
        "case_ms_p90": f"n={len(scaled)}, {sum(t > p90 for t in scaled)} beyond; "
                       f"raw {_p90(ph.times) * 1000:.4g}",
        "setup_s": f"median of {len(setups)} fresh processes; raw "
                   f"{statistics.median(r for r, _ in setups):.4g}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, samples, tally, inputs_sha256(cases)


def traced(root: Path, name: str, seed: int, seconds: float, out_dir: Path):
    """Traced run: overhead, per-layer metrics, exact counts and the
    baseline rows; the spans go to a JSON file in out_dir."""
    workload = WORKLOADS[name]
    tally = Tally()
    cases = workload.generate(seed)
    start = warm_up(workload, cases, tally)
    plain = timed_phase(workload, cases, tally, start, seconds / 2)
    with Tracer() as tracer:
        tracer.install_spans()
        traced_ph = timed_phase(workload, cases, tally, start, stop=plain.stop, tracer=tracer)
    with Tracer() as counter:
        counter.install_counts()
        for i, case in enumerate(cases[: workload.count_cases]):
            run_case(workload, case, tally, i, counter)
    # the same cases ran untraced and traced, so the rates compare directly
    untraced_rate, traced_rate = plain.scaled_rate(), traced_ph.scaled_rate()
    metrics = {
        "trace.cases": len(traced_ph.times),
        "trace.untraced_cases_per_s": untraced_rate,
        "trace.traced_cases_per_s": traced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate if traced_rate else 0.0,
    }
    metrics.update(layer_metrics(tracer, counter))
    metrics.update(baseline.relation1_stages(tally))
    metrics.update(baseline.arf_rows(tally))
    metrics.update(baseline.det_rows(tally))
    metrics.update(baseline.cli_dump_ratio(tally, out_dir))
    metrics.update(baseline.registry_rows(tally))
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_file, {"workload": name, "seed": seed, "metrics": metrics,
                             "count_cases": workload.count_cases})
    samples = {
        "trace": f"{len(traced_ph.times)} traced cases, {len(tracer.spans)} spans in {trace_file.name}",
        "counts": f"ring products over the first {workload.count_cases} cases",
    }
    return metrics, samples, tally, inputs_sha256(cases)
