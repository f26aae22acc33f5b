"""Command-line entry point.

Subcommands: verify, arf, boundary, formation, machine, replay, unil.
Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error (argparse), 3 domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import complexes, formations, forms, rim, witt
from .registry import SweepConfig, run_registry, select
from .rings import (
    AlgebraError,
    C2Poly,
    Mat,
    ParseError,
    PolyF2,
    PolyInt,
    PrecondError,
    format_matrix,
    parse_matrix,
    parse_poly,
)

EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_DOMAIN = 0, 1, 2, 3


def _poly_int(text: str) -> PolyInt:
    return parse_poly(text, PolyInt)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def _nonnegative(text: str) -> int:
    """argparse type of a sweep degree: a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {n}")
    return n


def _dump(directory: str, name: str, mat: Mat):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name + ".txt"), "w", encoding="utf-8") as fh:
        fh.write(format_matrix(mat) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        max_deg=args.max_deg,
        coeffs=tuple(args.coeff_set),
        machine_deg_triples=args.machine_deg_triples,
        machine_deg_pairs=args.machine_deg_pairs,
    )


def _machine_usage_error(args) -> str | None:
    """--p2 is relation 1's second parameter: required there, and a usage
    error with any other relation."""
    if args.relation == 1 and args.p2 is None:
        return "relation 1 needs --p2"
    if args.relation != 1 and args.p2 is not None:
        return f"--p2 belongs to relation 1, not relation {args.relation}"
    return None


def _verify_usage_error(args) -> str | None:
    """What makes a verify command line a usage error, if anything: a
    filter that selects no check, or a sweep that SweepConfig refuses
    (checked before the sweep is built)."""
    if not select(args.filter):
        return f"--filter {args.filter!r} matches no check id"
    try:
        _sweep_config(args)
    except PrecondError as exc:
        return str(exc)
    return None


def cmd_verify(args) -> int:
    report = run_registry(_sweep_config(args), pattern=args.filter)
    for line in report.human_lines():
        print(line)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.summary_lines()) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_arf(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    else:
        text = args.psi
    psi = parse_matrix(text, PolyF2)
    klass = forms.arf(forms.QuadraticForm(psi))
    print(str(klass))
    print(f"reduced: {'yes' if klass.is_reduced() else 'no'}")
    return EXIT_OK


def cmd_boundary(args) -> int:
    q = _poly_int(args.q)
    expected = formations.make_Q(q)  # rejects a bad q before any output
    form = forms.make_P(q.mod2(), PolyF2.one())
    psi, chi = rim.canonical_P_lifts(q)
    steps = rim.boundary_steps(rim.BoundaryInput(form, psi, chi))
    if args.show_steps:
        for label, pair in (
            ("step 1 (glued over the symmetrization)", steps.over_phi),
            ("step 2 (glued over the identity)", steps.over_id),
        ):
            print(label)
            for name, blk in (
                ("gamma", pair.gamma),
                ("mu", pair.mu),
                ("theta", pair.theta),
            ):
                print(f"  {name}: {format_matrix(blk[0])} | {format_matrix(blk[1])}")
    result = steps.result
    print("gamma=" + format_matrix(result.gamma))
    print("mu=" + format_matrix(result.mu))
    print("theta=" + format_matrix(result.theta))
    print("epsilon=-1")
    same = result == expected
    print(f"equals the Q-generator: {'yes' if same else 'no'}")
    return EXIT_OK if same else EXIT_VERIFY_FAIL


_FORMATION_KEYS = ("ring", "epsilon", "gamma", "mu", "theta")


def _read_formation(path: str) -> formations.SplitFormation:
    """key=value lines, each key of _FORMATION_KEYS at most once; lines
    starting with # are comments."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq or key not in _FORMATION_KEYS:
                keys = " ".join(_FORMATION_KEYS)
                raise ParseError(f"formation file lines are key=value, key one of {keys}: {line!r}")
            if key in fields:
                raise ParseError(f"formation file gives {key} twice")
            fields[key] = value.strip()
    ring_by_name = {"Z[x]": PolyInt, "F2[x]": PolyF2, "Z[C2][x]": C2Poly}
    ring = ring_by_name.get(fields.get("ring", "Z[C2][x]"))
    missing = [k for k in ("gamma", "mu", "theta") if k not in fields]
    if ring is None or missing:
        raise ParseError(
            f"formation file needs gamma, mu, theta and a ring in {sorted(ring_by_name)}"
        )
    return formations.SplitFormation(
        parse_matrix(fields["gamma"], ring),
        parse_matrix(fields["mu"], ring),
        parse_matrix(fields["theta"], ring),
        _int(fields.get("epsilon", "-1")),
    )


def cmd_formation(args) -> int:
    if args.action == "make-M":
        f = formations.make_M(_poly_int(args.p), _poly_int(args.g))
        print("ring=Z[C2][x]")
        print("epsilon=-1")
        print("gamma=" + format_matrix(f.gamma))
        print("mu=" + format_matrix(f.mu))
        print("theta=" + format_matrix(f.theta))
        return EXIT_OK
    f = _read_formation(args.file)
    print(f"hessian: {'pass' if f.hessian_holds() else 'fail'}")
    try:
        print(f"duality: {'pass' if formations.verify_poincare(f) else 'fail'}")
    except formations.UnsupportedShapeError:
        print("duality: unsupported shape (mu is not 2*Id)")
    print(f"graph: {'yes' if formations.is_graph(f) else 'no'}")
    return EXIT_OK


def cmd_machine(args) -> int:
    p = _poly_int(args.p)
    g = _poly_int(args.g)
    p2 = _poly_int(args.p2) if args.relation == 1 else None
    f, ncd, expected = complexes.relation_fixture(args.relation, p, g, p2)
    result = complexes.run_machine(f, ncd)
    if args.dump:  # after the run, so a failing stage leaves no partial dump
        _dump(args.dump, "pi", ncd.pi)
        _dump(args.dump, "chi", ncd.chi)
        _dump(args.dump, "gamma", f.gamma)
        _dump(args.dump, "theta", f.theta)
        _dump(args.dump, "psi1-hat", result.psi_hat.psi1)
        _dump(args.dump, "d-D", result.null_cobordism.d_d)
        _dump(args.dump, "union-d2", result.union.d_f2)
        _dump(args.dump, "union-d1", result.union.d_f1)
        _dump(args.dump, "obstruction", result.obstruction.big.psi)
        _dump(args.dump, "obstruction-reduced", result.obstruction.reduced.psi)
    for stage in complexes.STAGES:
        print(f"stage {stage}: ok")
    print(f"arf: {result.arf}")
    print(f"expected: {expected}")
    return EXIT_OK if result.arf == expected else EXIT_VERIFY_FAIL


def _parse_word(text: str) -> witt.GenWord:
    """Word grammar: terms k*M(p;g) and k*Q(q), each after one + or -
    (optional before the first term); 0 for zero."""
    s = text.replace(" ", "")
    word = witt.GenWord.zero()
    if s in ("0", ""):
        return word
    i = 0
    while i < len(s):
        sign = -1 if s[i] == "-" else 1
        if s[i] in "+-":
            i += 1
        elif i:
            raise ParseError(f"word terms are joined by + or -, not juxtaposed: {text!r}")
        coeff = 1
        j = i
        while j < len(s) and (s[j].isdigit()):
            j += 1
        if j > i and j < len(s) and s[j] == "*":
            coeff = _int(s[i:j])
            i = j + 1
        kind = s[i : i + 1]
        if not kind:
            raise ParseError(f"word ends in a sign: {text!r}")
        if kind not in ("M", "Q"):
            raise ParseError(f"bad word atom near {s[i:]!r} in {text!r}")
        close = s.find(")", i)
        if s[i + 1 : i + 2] != "(" or close < 0:
            raise ParseError(f"word atoms look like M(p;g) or Q(q), not {s[i:]!r}")
        inner = s[i + 2 : close]
        if kind == "M":
            ptext, _, gtext = inner.partition(";")
            atom = witt.GenWord.generator(_poly_int(ptext), _poly_int(gtext))
        else:
            atom = witt.GenWord.q_generator(_poly_int(inner))
        word = word + (sign * coeff) * atom
        i = close + 1
    return word


_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_value(key: str, text: str):
    """Type a step value by its key: n is an integer, dir and sign are
    options, anything else is a polynomial over Z[x].  Which keys a rule
    takes is checked by witt.Step."""
    if key == "n":
        return _int(text)
    if key == "dir":
        return text
    if key == "sign":
        if text not in _SIGNS:
            raise ParseError(f"sign is one of {' '.join(_SIGNS)}, not {text!r}")
        return _SIGNS[text]
    return _poly_int(text)


def _parse_script(path: str) -> tuple:
    """Line format: rule then key=value pairs; start:/end: lines give the
    endpoint words; # starts a comment.  Returns (steps, start, end)."""
    steps = []
    start = end = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            if line.startswith("start:"):
                start = _parse_word(line[len("start:"):])
                continue
            if line.startswith("end:"):
                end = _parse_word(line[len("end:"):])
                continue
            rule, *bits = line.split()
            params = {}
            for bit in bits:
                key, _, value = bit.partition("=")
                params[key] = _parse_value(key, value)
            steps.append(witt.Step(rule.upper(), params))
    if start is None or end is None:
        raise ParseError("script needs start: and end: lines")
    return tuple(steps), start, end


def cmd_replay(args) -> int:
    steps, start, end = _parse_script(args.script)
    try:
        closed = witt.replay(steps, start, end)
    except witt.ReplayError as exc:
        print(f"invalid {exc}")
        return EXIT_DOMAIN
    print("chain closes" if closed else "chain does not close")
    return EXIT_OK if closed else EXIT_VERIFY_FAIL


def cmd_unil(args) -> int:
    answer = witt.unil_answer(args.n, args.group)
    print(f"residue {answer.residue}: {answer}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unilc2",
        description="exact verification of the quadratic-form and formation "
        "computations over Z[x], F2[x] and Z[C2][x]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the check registry")
    v.add_argument("--filter", default=None, help="glob over check ids")
    sweep = SweepConfig  # the field defaults, read off the class: building a config sizes its sweeps
    v.add_argument("--max-deg", type=_nonnegative, default=sweep.max_deg)
    v.add_argument("--coeff-set", type=int, nargs="+", default=list(sweep.coeffs))
    v.add_argument("--machine-deg-triples", type=_nonnegative, default=sweep.machine_deg_triples)
    v.add_argument("--machine-deg-pairs", type=_nonnegative, default=sweep.machine_deg_pairs)
    v.add_argument("--summary", default="verify_summary.txt")
    v.set_defaults(fn=cmd_verify)

    a = sub.add_parser("arf", help="Arf class of a form matrix over F2[x]")
    src = a.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="file holding the psi matrix")
    src.add_argument("--psi", help="inline psi matrix, e.g. [x,1;0,1]")
    a.set_defaults(fn=cmd_arf)

    b = sub.add_parser("boundary", help="boundary formation of the rank-2 family")
    b.add_argument("--q", required=True)
    b.add_argument("--show-steps", action="store_true")
    b.set_defaults(fn=cmd_boundary)

    f = sub.add_parser("formation", help="build or check a split formation")
    fsub = f.add_subparsers(dest="action", required=True)
    fm = fsub.add_parser("make-M", help="print the generator M(p,g)")
    fm.add_argument("--p", required=True)
    fm.add_argument("--g", required=True)
    fc = fsub.add_parser("check", help="verdicts for a formation file")
    fc.add_argument("file")
    f.set_defaults(fn=cmd_formation)

    m = sub.add_parser("machine", help="run the gluing machine on a relation")
    m.add_argument("--relation", type=int, choices=(1, 2, 3, 4), required=True)
    m.add_argument("--p", required=True)
    m.add_argument("--p2")
    m.add_argument("--g", required=True)
    m.add_argument("--dump", help="directory for intermediate matrices")
    m.set_defaults(fn=cmd_machine)

    r = sub.add_parser("replay", help="replay a derivation script")
    r.add_argument("script")
    r.set_defaults(fn=cmd_replay)

    u = sub.add_parser("unil", help="answer table by residue mod 4")
    u.add_argument("--n", type=int, required=True)
    u.add_argument("--group", default="C2")
    u.set_defaults(fn=cmd_unil)

    return parser


class _Stdout:
    """Standard output that throws away what is written once its reader
    has closed it (unilc2 ... | head), so the command runs on and exits
    with its verdict."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            self._discard()
            return len(text)

    def flush(self):
        try:
            self.stream.flush()
        except BrokenPipeError:
            self._discard()

    def _discard(self):
        # the interpreter flushes sys.stdout again at exit: point its file
        # descriptor at the null device, so that flush has nowhere to fail
        fd = os.open(os.devnull, os.O_WRONLY)
        os.dup2(fd, self.stream.fileno())
        os.close(fd)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    usage_error = {"verify": _verify_usage_error, "machine": _machine_usage_error}.get(args.command)
    if usage_error and (problem := usage_error(args)):
        parser.error(problem)
    out = _Stdout(sys.stdout)
    try:
        with contextlib.redirect_stdout(out):
            return args.fn(args)
    except (AlgebraError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        out.flush()


if __name__ == "__main__":
    sys.exit(main())
