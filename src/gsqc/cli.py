"""Command-line front end: program files in, spectra/reports/sweeps out.

Commands: run, gap-scan, detect, spectrum, verify.  Single runs emit JSON,
sweeps emit CSV with deterministic row order and formatting so repeated runs
are byte-identical.  Config precedence: flags > config file > defaults.
"""
from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import os
import sys
import time

from .bounds import check_bounds, scaling_fit
from .detection import choose_beta, infer_output_from_readout
from .errors import ConsistencyError, ConvergenceError, ProgramError, SolverError
from .eigensolve import solve_spectrum
from .hamiltonian import assemble
from .program import Pin, Program, gate_cid, gate_cnot, load_program
from .semantics import run_program, solve_program
from . import verify as verify_mod

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONSISTENCY = 4
DENSE_SOLVE_MAX = 2048  # gsqc spectrum prints every level at or below this dimension


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _table(rows, columns, fmt: str) -> str:
    """Rows as a JSON list of objects, or as CSV through ``csv``, so a cell
    with a comma, quote or newline is quoted."""
    if fmt == "json":
        return json.dumps([{c: r[c] for c in columns} for r in rows], indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(r[c]) for c in columns] for r in rows)
    return buffer.getvalue()


def _check_out(out_path: str | None) -> None:
    """Fail an --out path in a missing directory, or naming one, before any
    solve and without creating the file; _emit reports any other failure."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(out_path) or os.curdir):
        code = errno.ENOENT
    else:
        return
    raise ProgramError(f"cannot write output file: {OSError(code, os.strerror(code), out_path)}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ProgramError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


_OPTIONS = {
    "--out": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv", dest="fmt"),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """The named shared options, then --config and --show-config."""
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])
    p.add_argument("--config", default=None, help="JSON file with default option values")
    p.add_argument("--show-config", action="store_true",
                   help="print resolved options and exit")


@functools.lru_cache(maxsize=None)
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The one parser of this process, with its subcommand parsers; parsing
    never changes it."""
    parser = argparse.ArgumentParser(prog="gsqc",
                                     description="ground-state quantum computer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p_run = commands["run"] = sub.add_parser(
        "run", help="solve a program file, print its output as JSON")
    p_run.add_argument("--program", required=True, help="program JSON file")
    _add_common(p_run, "--out")

    p_gap = commands["gap-scan"] = sub.add_parser(
        "gap-scan", help="sweep N, emit gap/bound rows as CSV")
    p_gap.add_argument("--m", type=int, default=1)
    p_gap.add_argument("--n-min", type=int, default=2)
    p_gap.add_argument("--n-max", type=int, default=8)
    p_gap.add_argument("--gate", choices=("none", "cnot", "cid"), default="none")
    p_gap.add_argument("--j", default="mid", help="gate row: integer or 'mid'")
    p_gap.add_argument("--beta", type=float, default=1.0)
    p_gap.add_argument("--timings", action="store_true",
                       help="append a wall-time column (breaks byte determinism)")
    _add_common(p_gap, "--out", "--format")

    p_det = commands["detect"] = sub.add_parser(
        "detect", help="detection probability sweep over beta")
    p_det.add_argument("--m", type=int, default=2)
    p_det.add_argument("--n", type=int, default=4)
    p_det.add_argument("--betas", default="1.0",
                       help="comma list of tipping factors; 1/sqrt(MN) is always included")
    _add_common(p_det, "--out", "--format")

    p_spec = commands["spectrum"] = sub.add_parser(
        "spectrum", help="dump low-lying levels of a program")
    p_spec.add_argument("--program", required=True)
    p_spec.add_argument("--k", type=int, default=None,
                        help=f"lowest levels to print above dimension {DENSE_SOLVE_MAX} "
                        "(default 2^M + 1); ignored at or below it, where every level is printed")
    _add_common(p_spec, "--out", "--format")

    p_ver = commands["verify"] = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--checks", default=None, help="comma list of check names")
    _add_common(p_ver)
    return parser, commands


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value, checked and converted as the same flag's text would be."""
    if action.nargs == 0:  # a switch such as --timings
        if not isinstance(value, bool):
            raise ProgramError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ProgramError(f"config key {key!r}: expected a string or a number, got {value!r}")
    try:
        value = (action.type or str)(str(value))
    except ValueError as exc:
        raise ProgramError(f"config key {key!r}: invalid value {value!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise ProgramError(f"config key {key!r}: {value!r} is not one of "
                           f"{', '.join(map(str, action.choices))}")
    return value


def _parse(argv: list[str]) -> argparse.Namespace:
    """Flags, then the config file's values, then the defaults."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProgramError(f"cannot read config file: {exc}") from exc
    if not isinstance(values, dict):
        raise ProgramError("config file must hold a JSON object")
    values = {k.replace("-", "_"): v for k, v in values.items()}
    known = {a.dest for p in commands.values() for a in p._actions}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ProgramError(f"unknown config key(s): {', '.join(unknown)}")
    # a key another command owns is ignored; null leaves the default
    sub = commands[args.command]
    preset = {a.dest: _config_value(a, a.dest, values[a.dest]) for a in sub._actions
              if values.get(a.dest) is not None}
    # the subcommand parser keeps what the namespace already holds and
    # overwrites it only with the flags given
    rest = argv[argv.index(args.command) + 1:]
    return sub.parse_args(rest, argparse.Namespace(command=args.command, **preset))


def _maybe_show_config(args) -> bool:
    if getattr(args, "show_config", False):
        resolved = {k: v for k, v in sorted(vars(args).items()) if k != "show_config"}
        print(json.dumps(resolved, indent=2, default=str))
        return True
    return False


# -- commands -------------------------------------------------------------------


def cmd_run(args) -> int:
    program = load_program(args.program)
    result = run_program(program)
    doc = {
        "qubits": program.num_qubits,
        "steps": program.num_steps,
        "output": [[bits, prob] for bits, prob in sorted(result.probabilities().items())],
        "residual": result.residual,
        "ground_energy": result.ground_energy,
        "gap": result.gap,
        "detection": result.detection.to_dict(),
    }
    if program.readout:
        try:
            doc["readout_bits"] = infer_output_from_readout(
                result.ground_state, result.basis, result.ground_energy, result.energy_scale)
        except ProgramError as exc:
            doc["readout_bits"] = None
            doc["readout_error"] = str(exc)
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _gap_row(args, N: int):
    t0 = time.perf_counter()
    row = {"N": N, "M": args.m, "gates": "none", "e0": None, "gap": None,
           "upper": None, "alpha4": None, "iterations": 0, "status": "ok"}
    try:
        gates = []
        if args.gate != "none":
            j = max(1, (N + 1) // 2) if args.j == "mid" else args.j
            gates = [gate_cnot(j, 0, 1) if args.gate == "cnot" else gate_cid(j, 0, 1)]
            row["gates"] = f"{args.gate}@{j}:0>1"
        program = Program(num_qubits=args.m, num_steps=N, gates=gates,
                          tip_beta=None if args.beta == 1.0 else args.beta)
        # the unpinned 2^M-fold zero manifold and the level above it
        res, _ = solve_program(program, 2 ** args.m + 1, vectors=False)
        row.update(e0=res.ground_energy, gap=res.gap, iterations=res.lu_solves)
        # a violated bound fails the row
        row.update(upper=check_bounds(program, res.gap), alpha4=res.gap * (N + 1) ** 4)
    except Exception as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
        print(f"N={N}: {row['status']}", file=sys.stderr)
    row["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    return row


def _check_sweep(args) -> None:
    """The options every row shares, checked once, before any row; a --j
    beyond some rows' N stays a failure of those rows."""
    if args.m < 1:
        raise ProgramError(f"--m must be at least 1, got {args.m}")
    if args.gate != "none" and args.m < 2:
        raise ProgramError(f"--gate {args.gate} needs --m at least 2, got {args.m}")
    if args.j != "mid":
        try:
            j = int(args.j)
        except (TypeError, ValueError):
            j = 0
        if j < 1:
            raise ProgramError(f"--j must be 'mid' or an integer at least 1, got {args.j!r}")
        args.j = j
    if not (0.0 < args.beta <= 1.0):
        raise ProgramError(f"--beta must lie in (0, 1], got {args.beta}")
    if args.n_min < 1:
        raise ProgramError(f"--n-min must be at least 1, got {args.n_min}")
    if args.n_max < args.n_min:
        raise ProgramError(f"empty N range {args.n_min}..{args.n_max}")


def cmd_gap_scan(args) -> int:
    _check_sweep(args)
    rows = [_gap_row(args, N) for N in range(args.n_min, args.n_max + 1)]
    ok_rows = [r for r in rows if r["status"] == "ok"]
    columns = ["N", "M", "gates", "e0", "gap", "upper", "alpha4", "iterations", "status"]
    if args.timings:
        columns.append("wall_ms")
    text = _table(rows, columns, args.fmt)
    if args.fmt == "csv" and len(ok_rows) >= 4 and all(r["gap"] for r in ok_rows):
        fit = scaling_fit([(r["N"], r["gap"]) for r in ok_rows])
        text += (f"# scaling_fit exponent={fit.exponent:.6f} "
                 f"constant={fit.constant:.6f} max_residual={fit.max_residual:.3e}\n")
    _emit(text, args.out)
    return EXIT_OK if ok_rows else EXIT_SOLVER


def cmd_detect(args) -> int:
    tokens = [tok.strip() for tok in str(args.betas).split(",") if tok.strip()]
    try:
        betas = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ProgramError(f"--betas must be a comma list of numbers, got {args.betas!r}") from exc
    if args.m < 1 or args.n < 1:
        raise ProgramError(f"--m and --n must be at least 1, got {args.m} and {args.n}")
    for b in betas:
        if not (0.0 < b <= 1.0):
            raise ProgramError(f"beta must lie in (0, 1], got {b}")
    distinct = []  # a beta within 1e-12 of an earlier one, the default's last, is dropped
    for b in betas + [choose_beta(args.m, args.n)]:
        if not any(abs(b - d) < 1e-12 for d in distinct):
            distinct.append(b)
    def detect_row(beta):
        program = Program(num_qubits=args.m, num_steps=args.n,
                          input_pins=[Pin(q, 0) for q in range(args.m)],
                          tip_beta=None if beta == 1.0 else beta)
        res = run_program(program)
        rep = res.detection
        return {"beta": beta, "p_all": rep.p_all_final,
                "predicted": rep.predicted_gate_free,
                "expected_attempts": rep.expected_attempts}

    rows = [detect_row(beta) for beta in sorted(distinct)]
    text = _table(rows, ["beta", "p_all", "predicted", "expected_attempts"], args.fmt)
    _emit(text, args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.k is not None and args.k < 2:
        raise ProgramError(f"--k must be at least 2, since a ground cluster needs the level "
                           f"above it to be resolved, got {args.k}")
    program = load_program(args.program)
    # by default the unpinned ground manifold and the level above it
    k = 2 ** program.num_qubits + 1 if args.k is None else args.k
    _, H = assemble(program)
    res = solve_spectrum(H, k=H.dim if H.dim <= DENSE_SOLVE_MAX else k)
    if args.fmt == "json":
        text = json.dumps({"eigenvalues": [float(v) for v in res.eigenvalues],
                           "ground_manifold_dim": res.ground_manifold_dim,
                           "gap": res.gap, "method": res.method}, indent=2) + "\n"
    else:
        rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(res.eigenvalues)]
        text = _table(rows, ["index", "eigenvalue"], "csv")
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [n.strip() for n in args.checks.split(",")] if args.checks else None
    results = verify_mod.run_all(names=names)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {mark}  {r.seconds:6.2f} s  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "gap-scan": cmd_gap_scan,
    "detect": cmd_detect,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        if _maybe_show_config(args):
            return EXIT_OK
        _check_out(getattr(args, "out", None))
        return _COMMANDS[args.command](args)
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, SolverError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
