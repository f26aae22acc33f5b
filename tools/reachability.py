"""List the functions of src/unilc2 that a representative run never calls.

Under sys.setprofile, the script runs each CLI command once, `verify` at
the smallest sweep flags, and the first 200 cases of each benchmark
workload (bench/ubench/workloads.py, through its run and check
functions).  It then prints every function and method defined in
src/unilc2 whose code was never entered, as `module:line qualname`, and
their count.  Comprehensions, lambdas and other unnamed code are left
out.  Standard library only.

Usage, from the repository root:

    python tools/reachability.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unilc2"
CASES_PER_WORKLOAD = 200

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def defined_functions() -> dict:
    """(file, first line, name) -> qualname of every named function in the
    package's sources, nested ones included."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), os.path.realpath(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    stack.append(const)
                    if not const.co_name.startswith("<"):
                        key = (const.co_filename, const.co_firstlineno, const.co_name)
                        out[key] = const.co_qualname
    return out


def cli_commands(tmp: Path) -> list:
    """One command line per CLI command; verify at its smallest sweeps."""
    psi = tmp / "psi.txt"
    psi.write_text("[x,1;0,1]\n", encoding="utf-8")
    script = tmp / "chain.script"
    script.write_text(
        "start: 4*M(x;1)\nend: 0\n"
        "R1 p1=x p2=x g=1\nR1 p1=x p2=x g=1\nR1 p1=2*x p2=2*x g=1\nISO-M0 p=x g=1\n",
        encoding="utf-8",
    )
    formation = tmp / "m.formation"
    return [
        ["verify", "--max-deg", "0", "--coeff-set", "1", "--machine-deg-triples", "0",
         "--machine-deg-pairs", "0", "--summary", str(tmp / "summary.txt")],
        ["arf", "--file", str(psi)],
        ["boundary", "--q", "x", "--show-steps"],
        ["formation", "make-M", "--p", "x", "--g", "1"],
        ["formation", "check", str(formation)],
        ["machine", "--relation", "1", "--p", "x", "--p2", "1+x", "--g", "x^2",
         "--dump", str(tmp / "dump")],
        ["replay", str(script)],
        ["unil", "--n", "1"],
    ]


def run_all(tmp: Path) -> None:
    from unilc2 import cli
    from ubench.workloads import WORKLOADS

    for argv in cli_commands(tmp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if argv[:2] == ["formation", "make-M"]:  # its output is the check's input
            (tmp / "m.formation").write_text(out.getvalue(), encoding="utf-8")
        print(f"unilc2 {argv[0]}: exit {code}", file=sys.stderr)
    for name, wl in WORKLOADS.items():
        cases = wl.generate(1)[:CASES_PER_WORKLOAD]
        ok = sum(bool(wl.check(case, wl.run(case))) for case in cases)
        print(f"{name}: {ok}/{len(cases)} cases checked", file=sys.stderr)


def main() -> int:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            run_all(Path(tmp))
        finally:
            sys.setprofile(None)
    called = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
    never = sorted(
        (Path(f).stem, line, qualname)
        for (f, line, name), qualname in defined_functions().items()
        if (f, line, name) not in called
    )
    for module, line, qualname in never:
        print(f"{module}:{line} {qualname}")
    print(f"{len(never)} functions never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
