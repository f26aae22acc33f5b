"""Tests of the benchmark itself: the correctness gate, failure accounting,
deterministic inputs, the tracer and the refusal to run without the
program.  Run with ``python -m pytest bench``."""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from ubench import runner, workloads  # noqa: E402
from ubench.trace import Tracer, layer_metrics  # noqa: E402
from unilc2 import complexes, forms  # noqa: E402
from unilc2.rings import PolyF2  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("ubench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _last_lines(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_corrupted_expected_value_is_a_failed_case_and_exit_is_nonzero(monkeypatch, capsys):
    name = "identity-sweep"
    wl = workloads.WORKLOADS[name]

    def corrupted(seed):
        cases = wl.generate(seed)
        cases[0] = dataclasses.replace(cases[0], expected=(True, True, True, False))
        return cases

    monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(wl, generate=corrupted))
    code = _load_run().main(["--workload", name, "--seed", "3", "--seconds", "0.2"])
    info, result = _last_lines(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1
    assert info["failed_frac"] == pytest.approx(1 / result["attempted"])
    assert info["failures"][0].startswith("case 0 ")


def test_exception_counts_as_failed_case_not_abort():
    wl = workloads.WORKLOADS["machine-sweep"]
    cases = wl.generate(5)

    def flaky(case):
        if case is cases[1]:
            raise ZeroDivisionError("boom")
        return wl.run(case)

    tally = runner.Tally()
    ph = runner.timed_phase(dataclasses.replace(wl, run=flaky), cases, tally, 0, stop=6)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert ph.correct == 5 and len(ph.times) == 6
    assert "ZeroDivisionError: boom" in tally.failures[0]


def test_inputs_follow_the_seed():
    for name, wl in workloads.WORKLOADS.items():
        if name == "user-forms":
            wl = dataclasses.replace(wl, generate=lambda seed: workloads.user_forms_cases(seed, cycles=1))
        a, b, c = wl.generate(7), wl.generate(7), wl.generate(8)
        assert workloads.inputs_sha256(a) == workloads.inputs_sha256(b), name
        assert workloads.inputs_sha256(a) != workloads.inputs_sha256(c), name


def test_expected_classes_agree_with_the_package():
    """The bit-arithmetic answers match arf_normalize and the fixtures."""
    for case in workloads.machine_cases(2, count=8):
        k, p, g, p2 = case.params
        assert complexes.relation_fixture(k, p, g, p2)[2] == case.expected
    for bits in range(1 << 10):
        assert workloads.arf_class_of_bits(bits) == forms.arf_normalize(PolyF2(bits))


def test_tracer_records_nesting_and_restores_originals():
    wl = workloads.WORKLOADS["machine-sweep"]
    original_arf = complexes.arf
    with Tracer() as tracer:
        tracer.install_spans()
        assert complexes.arf is not original_arf
        tracer.case = 0
        assert wl.check(wl.generate(1)[0], wl.run(wl.generate(1)[0]))
    assert complexes.arf is original_arf and forms.arf is original_arf
    by_id = {s[0]: s for s in tracer.spans}
    arf_parents = {by_id[s[1]][3] for s in tracer.spans if s[3].startswith("forms.arf.")}
    assert arf_parents == {"complexes.instant_obstruction"}
    calls, incl, own = tracer.summary()
    assert calls["complexes.run_machine"] == 1
    assert calls["forms.arf.rank_gt6"] == calls["forms.arf.rank_le6"] == 1
    assert all(0 <= own[n] <= incl[n] + 1e-9 for n in calls)
    with Tracer() as counter:
        counter.install_counts()
        wl.run(wl.generate(1)[0])
    m = layer_metrics(tracer, counter)
    assert m["complexes.desym_checks_per_run"] == 2
    assert m["rings.PolyF2.mul.count"] > 0
    declared = {d["name"] for d in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(m) <= declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "machine-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
