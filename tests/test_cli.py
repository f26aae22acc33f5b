import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unilc2.cli import main
from unilc2.rings import MAX_DIM, MAX_EXPONENT, PrecondError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_arf_inline(capsys):
    code, out = run(capsys, "arf", "--psi", "[x,1;0,1]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x"
    assert lines[1] == "reduced: yes"


def test_arf_file(capsys, tmp_path):
    path = tmp_path / "P_x1.form"
    path.write_text("[x,1;0,1]\n")
    code, out = run(capsys, "arf", "--file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "x"


def test_arf_unreduced_flag(capsys):
    code, out = run(capsys, "arf", "--psi", "[1+x,1;0,1]")
    assert code == 0
    assert "reduced: no" in out


def test_boundary_steps(capsys):
    code, out = run(capsys, "boundary", "--q", "x", "--show-steps")
    assert code == 0
    assert "[4*x,0;0,4*x]" in out
    assert "[0,4*x;4*x,0]" in out
    assert "equals the Q-generator: yes" in out


@pytest.mark.parametrize("psi", ["[2x]", "[x^]"])
def test_arf_malformed_polynomial_is_a_domain_error(capsys, psi):
    code = main(["arf", "--psi", psi])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_boundary_rejects_q_before_printing(capsys):
    code = main(["boundary", "--q", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "constant coefficient" in captured.err


def test_machine_relation(capsys):
    code, out = run(capsys, "machine", "--relation", "1", "--p", "x", "--p2", "x", "--g", "1")
    assert code == 0
    assert "arf: x" in out
    assert "stage obstruction: ok" in out


def test_machine_dump(capsys, tmp_path):
    d = str(tmp_path / "dump")
    code, _ = run(capsys, "machine", "--relation", "2", "--p", "x", "--g", "1", "--dump", d)
    assert code == 0
    names = sorted(os.listdir(d))
    assert "pi.txt" in names and "obstruction-reduced.txt" in names


def test_machine_dump_of_relation_1_signs_the_negated_block(capsys, tmp_path):
    d = tmp_path / "dump"
    code, _ = run(capsys, "machine", "--relation", "1", "--p", "x", "--p2", "x", "--g", "1", "--dump", str(d))
    assert code == 0
    gamma = (d / "gamma.txt").read_text()
    assert gamma == (d / "theta.txt").read_text()
    assert gamma == "[x,1,0,0,0,0;1,1-T,0,0,0,0;0,0,x,1,0,0;0,0,1,1-T,0,0;0,0,0,0,-2*x,-1;0,0,0,0,-1,-1+T]\n"


def test_machine_stage_error_leaves_no_dump(capsys, tmp_path, monkeypatch):
    """A failing stage exits 3 before any output: no stage line and no dump
    directory."""
    from unilc2 import complexes

    def fail(f, ncd):
        raise complexes.StageError("union", "T -> +1 evaluation is not a graph formation")

    monkeypatch.setattr(complexes, "run_machine", fail)
    d = tmp_path / "dump"
    code = main(["machine", "--relation", "2", "--p", "x", "--g", "1", "--dump", str(d)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: [union]")
    assert not d.exists()


def test_machine_requires_p2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["machine", "--relation", "1", "--p", "x", "--g", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--p2" in captured.err


@pytest.mark.parametrize("relation", ["2", "3", "4"])
def test_machine_p2_outside_relation_1_is_a_usage_error(capsys, relation):
    """--p2 is relation 1's parameter; with another relation it exits 2
    before any output, not 0 with --p2 ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["machine", "--relation", relation, "--p", "x", "--g", "1", "--p2", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--p2" in captured.err


def test_formation_make_and_check(capsys, tmp_path):
    code, out = run(capsys, "formation", "make-M", "--p", "x", "--g", "1")
    assert code == 0
    path = tmp_path / "m.formation"
    path.write_text(out)
    code, out = run(capsys, "formation", "check", str(path))
    assert code == 0
    assert "hessian: pass" in out
    assert "duality: pass" in out
    assert "graph: no" in out


@pytest.mark.parametrize(
    "text",
    [
        "ring=Q\ngamma=[0]\nmu=[1]\ntheta=[0]\n",
        "ring=Z[x]\ngamma=[0]\n",
        "gamma=[0]\nmu=[1]\ntheta=[0]\nepsilon=odd\n",
        "gamma=[0]\nmu=[1]\ntheta=[0]\nthetta=[5]\n",  # unknown key
        "gamma=[0]\nmu=[1]\ntheta=[0]\ngamma=[1]\n",  # repeated key
        "gamma=[0]\nmu=[1]\ntheta=[0]\nepsilon\n",  # no =
    ],
)
def test_formation_check_malformed_file_is_a_domain_error(capsys, tmp_path, text):
    path = tmp_path / "bad.formation"
    path.write_text(text)
    code = main(["formation", "check", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_formation_check_f2_has_no_two_id_shape(capsys, tmp_path):
    """2 = 0 in F2[x], so an F2[x] formation with mu = 0 is not the
    exponent-two shape mu = 2*Id, and its duality check is unsupported."""
    path = tmp_path / "f2.formation"
    path.write_text("ring=F2[x]\ngamma=[x,1;1,0]\nmu=[0,0;0,0]\ntheta=[x,1;1,0]\n")
    code, out = run(capsys, "formation", "check", str(path))
    assert code == 0
    assert "duality: unsupported shape" in out


def test_exponent_at_the_cap_is_accepted(capsys):
    code, _ = run(capsys, "arf", "--psi", f"[x^{MAX_EXPONENT},1;0,1]")
    assert code == 0


@pytest.mark.parametrize(
    "psi",
    [
        f"[x^{MAX_EXPONENT + 1},1;0,1]",
        f"[x^{MAX_EXPONENT}*x,1;0,1]",  # the exponent of the whole term counts
        "[" + ";".join(["0"] * (MAX_DIM + 1)) + "]",  # one row too many
        "[" + ",".join(["0"] * (MAX_DIM + 1)) + "]",  # one column too many
        "[" + "9" * 5000 + "]",  # longer than int() converts
    ],
)
def test_arf_oversized_input_is_a_domain_error(capsys, psi):
    code = main(["arf", "--psi", psi])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "gamma", [f"[x^{MAX_EXPONENT + 1}]", "[" + ",".join(["0"] * (MAX_DIM + 1)) + "]"]
)
def test_formation_check_oversized_file_is_a_domain_error(capsys, tmp_path, gamma):
    path = tmp_path / "big.formation"
    path.write_text(f"ring=Z[x]\ngamma={gamma}\nmu=[1]\ntheta=[0]\n")
    code = main(["formation", "check", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_arf_needs_a_matrix_source():
    with pytest.raises(SystemExit) as err:
        main(["arf"])
    assert err.value.code == 2


def test_replay_script(capsys, tmp_path):
    path = tmp_path / "chain.script"
    path.write_text(
        "start: 4*M(x;1)\n"
        "end: 0\n"
        "R1 p1=x p2=x g=1\n"
        "R1 p1=x p2=x g=1\n"
        "R1 p1=2*x p2=2*x g=1\n"
        "ISO-M0 p=x g=1\n"
    )
    code, out = run(capsys, "replay", str(path))
    assert code == 0
    assert "chain closes" in out


def test_replay_script_with_trailing_comments(capsys, tmp_path):
    path = tmp_path / "commented.script"
    path.write_text(
        "start: 4*M(x;1)  # four copies\n"
        "end: 0\n"
        "R1 p1=x p2=x g=1          # additivity, direction lr (merge) by default\n"
        "R1 p1=x p2=x g=1\n"
        "R1 p1=2*x p2=2*x g=1\n"
        "ISO-M0 p=x g=1            # discharge M(4p,g) via the explicit isomorphism\n"
    )
    code, out = run(capsys, "replay", str(path))
    assert code == 0
    assert out == "chain closes\n"


def test_replay_invalid_step(capsys, tmp_path):
    path = tmp_path / "bad.script"
    path.write_text("start: M(x;1)\nend: 0\nR4 p=x g=1\n")
    code, out = run(capsys, "replay", str(path))
    assert code == 3
    assert "step 0" in out


def test_replay_malformed_word_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "truncated.script"
    path.write_text("start: 4*M\nend: 0\n")
    code = main(["replay", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "steps, index",
    [
        ("VN n=1000000000\n", 0),
        ("VN n=1000\nVN n=1000\n", 1),  # x^1000, then x^1000000
    ],
)
def test_replay_exponent_over_the_cap_is_a_domain_error(capsys, tmp_path, steps, index):
    path = tmp_path / "vn.script"
    path.write_text("start: M(x;1)+Q(x)\nend: 0\n" + steps)
    code, out = run(capsys, "replay", str(path))
    assert code == 3
    assert out.startswith(f"invalid step {index}: ")
    assert str(MAX_EXPONENT) in out


@pytest.mark.parametrize(
    "step",
    [
        "R2 p=x",  # no g
        "VN",  # no n
        "R2 p=x g=1 bogus=1",  # a key R2 does not take
        "R2 p=x g=1 dir=sideways",
        "R2 p=x g=1 sign=banana",
        "R9 p=x g=1",  # no such rule
        "ISO-M0 p=x g=1 dir=rl",  # ISO-M0 takes no direction
    ],
)
def test_replay_malformed_step_is_a_domain_error(capsys, tmp_path, step):
    path = tmp_path / "bad.script"
    path.write_text(f"start: M(2*x;1)\nend: M(2;x)\n{step}\n")
    code = main(["replay", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_replay_undecodable_script_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "binary.script"
    path.write_bytes(b"start: M(x;1)\nend: 0\n\xff\xfe\n")
    code = main(["replay", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "start",
    [
        "M(x;1)M(x;1)",  # juxtaposed terms: once read as a sum closing against 2*M(x;1)
        "M(x;1)+",  # a dangling sign
        "--M(x;1)",  # two signs
    ],
)
def test_replay_word_needs_one_sign_between_terms(capsys, tmp_path, start):
    path = tmp_path / "word.script"
    path.write_text(f"start: {start}\nend: 2*M(x;1)\n")
    code = main(["replay", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_replay_open_chain(capsys, tmp_path):
    path = tmp_path / "open.script"
    path.write_text("start: 2*M(x;1)\nend: 0\nR1 p1=x p2=x g=1\n")
    code, out = run(capsys, "replay", str(path))
    assert code == 1
    assert "does not close" in out


def test_unil(capsys):
    code, out = run(capsys, "unil", "--n", "2")
    assert code == 0
    assert "xF2[x]/(f^2-f)" in out
    code, out = run(capsys, "unil", "--n", "8")
    assert "residue 0: 0" in out


def test_unil_bad_context(capsys):
    assert main(["unil", "--n", "3", "--group", "dihedral"]) == 3


# -- a reader that closes standard output early (unilc2 ... | head) leaves
# the exit code to the verdict

_CLI = "import sys; from unilc2 import cli; sys.exit(cli.main(sys.argv[1:]))"
# the same with every check of the registry made to fail
_FAILING_CLI = (
    "import sys; from unilc2 import cli, registry; "
    "registry.REGISTRY = tuple(registry.Check(c.id, c.statement, lambda cfg: (False, 'made to fail')) "
    "for c in registry.REGISTRY); "
    "sys.exit(cli.main(sys.argv[1:]))"
)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("program, argv, verdict", [
    (_CLI, ["verify", "--filter", "rings.*"], 0),
    (_FAILING_CLI, ["verify", "--filter", "rings.*"], 1),
    (_CLI, ["unil", "--n", "3"], 0),
], ids=["verify-pass", "verify-fail", "unil"])
def test_a_closed_standard_output_leaves_the_verdict(program, argv, verdict, unbuffered, tmp_path):
    """The CLI in a fresh interpreter whose standard output is closed by
    its reader before anything is written: what it writes there is thrown
    away, it exits with its verdict, and standard error stays empty.
    Unbuffered, the first print meets the closed pipe; buffered, the last
    flush does.  It runs in a temporary directory, where verify leaves its
    summary file; the repository root is left as it was."""
    root = Path(__file__).resolve().parent.parent
    before = {p.name: p.stat().st_mtime_ns for p in root.iterdir()}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-c", program, *argv], env=env, cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (verdict, b"")
    assert [p.name for p in tmp_path.iterdir()] == (["verify_summary.txt"] if argv[0] == "verify" else [])
    assert {p.name: p.stat().st_mtime_ns for p in root.iterdir()} == before


def test_python_dash_m_runs_the_cli(tmp_path):
    """python -m unilc2 is the unilc2 command: it prints the Arf class of
    P(x, 1) and exits with main's code."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "unilc2", "arf", "--psi", "[x,1;0,1]"], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout.splitlines()[0], proc.stderr) == (0, "x", "")


def test_verify_filtered(capsys, tmp_path):
    summary = tmp_path / "sum.txt"
    code, out = run(
        capsys, "verify", "--filter", "rings.c2*", "--summary", str(summary)
    )
    assert code == 0
    assert "[PASS] rings.c2-mult-table" in out
    assert "overall=pass" in summary.read_text()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["bogus-command"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "value, flag",
    [
        (value, flag)
        for value in ("-1", "-3", "two", "100000000")
        for flag in ("--max-deg", "--machine-deg-triples", "--machine-deg-pairs")
    ]
    + [("512", "--max-deg"), ("10000000", "--max-deg"), ("1025", "--machine-deg-pairs"),
       ("1025", "--machine-deg-triples")],
)
def test_verify_rejects_a_bad_sweep_degree_as_a_usage_error(monkeypatch, value, flag):
    """A negative, non-integer or too high sweep degree exits 2 before any
    output and before any sweep size is computed, never 1 (a failed
    verification) or 0 on a shrunken sweep.  --max-deg stops at 511, where
    witt.nilpotence's x -> x^2 of x*g reaches rings.MAX_EXPONENT = 1024;
    the machine degrees stop at MAX_EXPONENT."""
    from unilc2.registry import SweepConfig

    def no_sizes(self):
        raise AssertionError("a sweep size was computed")

    monkeypatch.setattr(SweepConfig, "sweep_sizes", no_sizes)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["verify", flag, value])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert flag in err.getvalue()


@pytest.mark.parametrize("field, flag", [("max_deg", "--max-deg"), ("machine_deg_pairs", "--machine-deg-pairs"),
                                         ("machine_deg_triples", "--machine-deg-triples")])
def test_sweep_config_refuses_a_degree_above_its_cap(monkeypatch, field, flag):
    """Through the API too, a degree above DEGREE_CAPS is refused when the
    config is built, before any sweep size is computed or check run; the
    degree at the cap is accepted."""
    from unilc2.registry import DEGREE_CAPS, SweepConfig, run_registry

    def no_sizes(self):
        raise AssertionError("a sweep size was computed")

    monkeypatch.setattr(SweepConfig, "sweep_sizes", no_sizes)
    cap = DEGREE_CAPS[flag]
    for deg in (cap + 1, 10**6):
        with pytest.raises(PrecondError, match=f"{flag} {deg} is above the degree cap {cap}"):
            run_registry(SweepConfig(**{field: deg, "coeffs": (1,)}), "witt.nilpotence")
    monkeypatch.undo()  # the config at the cap checks its sweep sizes too
    assert getattr(SweepConfig(**{field: cap, "coeffs": (1,)}), field) == cap


@pytest.mark.parametrize("argv", [["--max-deg", "511"], ["--machine-deg-pairs", "1024"]])
def test_verify_passes_at_the_highest_sweep_degrees(tmp_path, argv):
    """At the highest accepted degrees over --coeff-set 1 every check
    passes: no substitution leaves the exponent cap."""
    summary = tmp_path / "sum.txt"
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", *argv, "--coeff-set", "1", "--summary", str(summary)])
    assert code == 0, out.getvalue()
    assert "overall=pass" in summary.read_text()


def test_verify_filter_matching_no_check_is_a_usage_error(tmp_path):
    """A filter that selects nothing (here a typo) exits 2 before any
    output and writes no summary, never a vacuous pass."""
    summary = tmp_path / "sum.txt"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "machine.additivty", "--summary", str(summary)])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "--filter" in err.getvalue()
    assert not summary.exists()


@pytest.mark.parametrize("coeffs", [["0"], ["0", "0"]])
def test_verify_coefficient_set_of_zeros_is_a_usage_error(tmp_path, coeffs):
    """A --coeff-set with no nonzero entry would run every sweep on zero
    polynomials alone: it exits 2 before any output, never an empty pass."""
    summary = tmp_path / "sum.txt"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["verify", "--coeff-set", *coeffs, "--summary", str(summary)])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "--coeff-set" in err.getvalue()
    assert not summary.exists()


def test_sweep_config_refuses_a_coefficient_set_of_zeros():
    """Through the API too, a sweep of zero coefficients is refused when
    the config is built, so no check can run on zero polynomials alone;
    one nonzero coefficient is enough for the idempotence check."""
    from unilc2.registry import SweepConfig, check_idempotence

    for coeffs in ((0,), (0, 0)):
        with pytest.raises(PrecondError, match="--coeff-set needs a nonzero coefficient"):
            SweepConfig(coeffs=coeffs)
    ok, detail = check_idempotence(SweepConfig(coeffs=(0, 1)))
    assert ok and "for 15 polynomials" in detail


@pytest.mark.parametrize(
    "kwargs, flag",
    [({"max_deg": 30}, "--max-deg"), ({"machine_deg_triples": 3}, "--machine-deg-triples"),
     ({"machine_deg_pairs": 4}, "--machine-deg-pairs")],
)
def test_sweep_config_refuses_an_oversized_sweep(monkeypatch, kwargs, flag):
    """Through the API too, a sweep of more candidates than its cap in
    SWEEP_CAPS is refused when the config is built, before any sweep is
    listed: SweepConfig(max_deg=30) would sweep 3.8 * 10^29 pairs."""
    from unilc2.registry import SWEEP_CAPS, SweepConfig

    def no_sweep(*args, **kwargs):
        raise AssertionError("the oversized sweep was built")

    monkeypatch.setattr(SweepConfig, "polys", no_sweep)
    with pytest.raises(PrecondError, match=f"{flag} over --coeff-set sweeps \\d+ candidates, "
                                           f"above the cap {SWEEP_CAPS[flag]}"):
        SweepConfig(**kwargs)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--max-deg", "40"], "--max-deg"),
        (["--coeff-set", *map(str, range(20))], "--max-deg"),
        # 531 441 triples: under MAX_SWEEP, but over the machine sweeps' cap
        (["--machine-deg-triples", "3"], "--machine-deg-triples"),
        (["--machine-deg-pairs", "4"], "--machine-deg-pairs"),
    ],
)
def test_verify_rejects_an_oversized_sweep_as_a_usage_error(monkeypatch, tmp_path, argv, flag):
    """A sweep of more candidates than its cap exits 2 before any output
    and before the sweep is built (building it would fail the test here
    instead of exhausting memory or running for minutes)."""
    from unilc2.registry import SweepConfig

    def no_sweep(*args, **kwargs):
        raise AssertionError("the oversized sweep was built")

    monkeypatch.setattr(SweepConfig, "polys", no_sweep)
    summary = tmp_path / "sum.txt"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--filter", "rings.duality-unit-sweep", "--summary", str(summary)])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert flag in err.getvalue() and "cap" in err.getvalue()
    assert not summary.exists()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--max-deg", "4"],
        ["--machine-deg-pairs", "3"],
        ["--machine-deg-triples", "3", "--coeff-set", "0", "1"],
    ],
)
def test_verify_accepts_sweeps_within_the_cap(argv):
    """The defaults (19 683 degree-2 triples), the degree-3 pairs (6 561)
    and degree-3 triples over two coefficients (4 096) are within the
    caps."""
    from unilc2.cli import _sweep_config, _verify_usage_error, build_parser
    from unilc2.registry import MAX_MACHINE_SWEEP, SWEEP_CAPS

    args = build_parser().parse_args(["verify", *argv])
    sizes = _sweep_config(args).sweep_sizes()
    assert all(count <= SWEEP_CAPS[flag] for flag, count in sizes.items())
    assert _verify_usage_error(args) is None
    if not argv:
        assert sizes["--machine-deg-triples"] == 19683 <= MAX_MACHINE_SWEEP


def test_verify_defaults_are_the_sweep_config():
    from unilc2.cli import build_parser
    from unilc2.registry import SweepConfig

    args = build_parser().parse_args(["verify"])
    cfg = SweepConfig()
    assert (args.max_deg, tuple(args.coeff_set), args.machine_deg_triples, args.machine_deg_pairs) == (
        cfg.max_deg, cfg.coeffs, cfg.machine_deg_triples, cfg.machine_deg_pairs)


def test_word_grammar_roundtrip():
    from conftest import zx
    from unilc2.cli import _parse_word
    from unilc2.witt import GenWord

    words = [
        GenWord.zero(),
        GenWord.generator(zx("x"), zx("1"), 3),
        GenWord.generator(zx("x"), zx("x^2")) - GenWord.generator(zx("2*x"), zx("1")),
        GenWord.generator(zx("x"), zx("1")) + GenWord.q_generator(zx("x+x^3")),
        GenWord.q_generator(zx("x^5")),
    ]
    for w in words:
        assert _parse_word(str(w)) == w


def test_registry_ids_unique_and_documented():
    from unilc2.registry import REGISTRY

    ids = [c.id for c in REGISTRY]
    assert len(ids) == len(set(ids))
    readme = open("README.md", encoding="utf-8").read()
    for cid in ids:
        assert cid in readme, f"{cid} missing from the registry table"


def test_verify_deterministic_across_runs():
    """Two runs give the same checks, in registry order, with the same
    verdicts and details."""
    from unilc2.registry import REGISTRY, SweepConfig, run_registry

    cfg = SweepConfig(max_deg=2)
    first, second = (run_registry(cfg, pattern="rings.*") for _ in range(2))
    strip = lambda rep: [(r[0], r[2], r[3]) for r in rep.results]
    assert strip(first) == strip(second)
    assert [r[0] for r in first.results] == [c.id for c in REGISTRY if c.id.startswith("rings.")]
    assert first.ok


# -- grammar fuzz: no input text may crash the CLI or read as a failed check

POLY_TEXTS = ["x", "1", "0", "2*x", "x^2", "-x", "1+x", "4*x", "x^3+x", "2", "2*x^2"]
BAD_TEXTS = ["T", "", "x^1025", "abc", "1.5", "x*", "lr", "banana", "+", "-3"]
ATOM_TEXTS = ["M(x;1)", "M(2*x;1)", "M(0;x)", "M(1;x)", "M(x;x)", "Q(x)", "Q(x^3)",
              "M(2;x)", "M(4*x;1)", "2*M(x;1)", "4*M(x;1)", "0"]
BAD_ATOMS = ["Q(1)", "M(1;1)", "M(", "Q)", "M(x;1", "3*", "*M(x;1)", "M(x)"]
# the keys each rule takes, so that most generated steps are well formed
RULE_KEYS = {"R1": ("p1", "p2", "g"), "R2": ("p", "g"), "R3": ("p", "g"), "R4": ("p", "g"),
             "VN": ("n",), "ISO-M0": ("p", "g"), "QARITH": ("q",)}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


junk = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12)


def _step_line(rule, values, bad, extras, drop):
    """A step line for rule; bad, if not None, replaces its last value, and
    drop leaves out that many keys."""
    keys = RULE_KEYS.get(rule, ("p", "g"))
    values = [len(v) % 4 if k == "n" else v for k, v in zip(keys, values)]
    if bad is not None:
        values[-1] = bad
    bits = [f"{k}={v}" for k, v in zip(keys, values)]
    return " ".join([rule, *bits[:len(bits) - drop], *extras])


step_lines = st.builds(
    _step_line,
    st.sampled_from([*RULE_KEYS, "r2", "vn", "R5"]),
    st.lists(st.sampled_from(POLY_TEXTS), min_size=3, max_size=3),
    st.one_of(*[st.none()] * 6, st.sampled_from(BAD_TEXTS), junk),
    st.lists(st.sampled_from(["dir=rl", "dir=lr", "sign=-", "sign=+1", "sign=1"]), max_size=2),
    st.sampled_from([0, 0, 0, 1]),
)
words = st.builds(
    lambda atoms, signs: "".join(s + a for s, a in zip(signs, atoms)) or "0",
    st.lists(st.sampled_from(ATOM_TEXTS * 4 + BAD_ATOMS), max_size=3),
    st.lists(st.sampled_from(["", "+", "-"]), min_size=3, max_size=3),
)
scripts = st.builds(
    lambda start, end, body: "\n".join([start, end, *body]) + "\n",
    st.one_of(*[words.map(lambda w: f"start: {w}")] * 4, st.sampled_from(["", "start:"])),
    st.one_of(*[words.map(lambda w: f"end: {w}")] * 4, st.sampled_from(["", "end:"])),
    st.lists(st.one_of(
        *[step_lines] * 8,
        st.sampled_from(["", "# comment", "VN n=0", "VN n=-1", "VN n=x", "R2 p=x g=1 bogus=1",
                         "R2 p=x g=1 dir=sideways", "R2 p=x g=1 sign=banana", "R2 g", "R2 =x"]),
        junk,
    ), max_size=5),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scripts)
@example("start: M(2*x;1)\nend: M(2;x)\nR2 p=x\n")
@example("start: M(2*x;1)\nend: M(2;x)\nVN\n")
@example("start: M(2*x;1)\nend: M(2;x)\nR2 p=x g=1 bogus=1\n")
@example("start: M(2*x;1)\nend: M(2;x)\nR2 p=x g=1 dir=sideways\n")
@example("start: M(2*x;1)\nend: M(2;x)\nR2 p=x g=1 sign=banana\n")
@example("start: M(2*x;1)\nend: M(2;x)\nR2 p=x g=1\n")
@example("start: 2*M(x;1)\nend: 0\nR1 p1=x p2=x g=1\n")
@example("start: M(x;1)\nend: 0\nR4 p=x g=1\n")
def test_replay_grammar_fuzz(tmp_path, text):
    path = tmp_path / "fuzz.script"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run_cli(["replay", str(path)])
    assert code in (0, 1, 3)
    if code == 0:
        assert out == "chain closes\n"
    elif code == 1:
        assert out == "chain does not close\n"
    elif out:
        assert re.fullmatch(r"invalid step \d+: .*\n", out, re.S)
    else:
        assert err.startswith("error: ")


ENTRY_TEXTS = ["x", "1", "0", "2", "2*x", "1-T", "T", "2-2*T", "x^2"]
BAD_MATRICES = ["[x,1;1]", "x", "[abc]", "[T", "[x^1025]", "[]", "[0]"]


def _matrix(entries, rows, cols):
    it = iter(entries)
    return "[" + ";".join(",".join(next(it) for _ in range(cols)) for _ in range(rows)) + "]"


def _formation_file(shape, entries, gamma_cols, bad, extra):
    """gamma and mu of one shape and theta square, so most files are
    well formed; bad, if not None, replaces one of the three lines."""
    rows, cols = shape
    lines = [
        f"gamma={_matrix(entries, rows, gamma_cols or cols)}",
        f"mu={_matrix(entries, rows, cols)}",
        f"theta={_matrix(entries, cols, cols)}",
    ]
    if bad is not None:
        lines[bad[0]] = lines[bad[0]].split("=")[0] + "=" + bad[1]
    return lines + extra


formation_files = st.builds(
    _formation_file,
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.lists(st.sampled_from(ENTRY_TEXTS), min_size=27, max_size=27),
    st.sampled_from([None, None, None, 1, 2]),
    st.one_of(st.none(), st.tuples(st.integers(0, 2), st.one_of(st.sampled_from(BAD_MATRICES), junk))),
    st.lists(st.one_of(
        st.sampled_from(["ring=Z[x]", "ring=F2[x]", "ring=Z[C2][x]", "ring=Q", "epsilon=1",
                         "epsilon=-1", "epsilon=0", "epsilon=odd", "", "# comment", "gamma",
                         "=", "bogus=1"]),
        junk,
    ), max_size=3),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(formation_files)
@example(["ring=Z[x]", "gamma=[x,1;1,2]", "mu=[2,0;0,2]", "theta=[x,1;1,2]"])
@example(["ring=Z[x]", "gamma=[x,1;1,2]", "mu=[2,0;0,2]", "theta=[x,1;1,2]", "epsilon=1"])
@example(["ring=F2[x]", "gamma=[x,1;1,0]", "mu=[0,0;0,0]", "theta=[x,1;1,0]"])
@example(["gamma=[x,1]", "mu=[x,1]", "theta=[1]"])
def test_formation_file_grammar_fuzz(tmp_path, lines):
    text = "\n".join(lines) + "\n"
    path = tmp_path / "fuzz.formation"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run_cli(["formation", "check", str(path)])
    assert code in (0, 3)
    if code == 0:
        # every line is key=value with a known key, given once
        body = [line for line in map(str.strip, text.split("\n")) if line and not line.startswith("#")]
        keys = [line.partition("=")[0].strip() for line in body]
        assert all("=" in line for line in body)
        assert set(keys) <= {"ring", "epsilon", "gamma", "mu", "theta"}
        assert len(keys) == len(set(keys))
        assert [line.split(":")[0] for line in out.splitlines()] == ["hessian", "duality", "graph"]
    else:
        assert out == "" and err.startswith("error: ")
