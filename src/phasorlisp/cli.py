"""Command-line entry point: REPL, script runner, benchmark driver.

Exit codes: 0 success, 1 runtime error, 2 missing file or bad
configuration, 3 syntax error.  Fatal errors print one line to stderr
with an ERROR:<kind>: prefix.  Given the same seed and script, stdout is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    DEFAULT_MAGNITUDES,
    flatness_ratio,
    growth_exponent,
    run_benchmark,
    write_csv,
    write_plot_data,
)
from .errors import (
    ConfigError,
    InvalidModuliError,
    ParseError,
    PhasorError,
    SessionIOError,
)
from .lisp import Config, Session
from .reader import parse_program
from .residue import DECODE_METHODS

__all__ = ["build_parser", "main", "entry"]


def build_parser() -> argparse.ArgumentParser:
    defaults = Config()
    parser = argparse.ArgumentParser(
        prog="phasorlisp",
        description="A Lisp whose values are complex phasor hypervectors, "
        "with residue-coded modular integer arithmetic.",
    )
    parser.add_argument(
        "--dim", type=int, default=defaults.dim, help="vector dimension"
    )
    parser.add_argument(
        "--moduli",
        default=",".join(str(m) for m in defaults.moduli),
        help="comma-separated co-prime moduli",
    )
    parser.add_argument(
        "--theta", type=float, default=defaults.theta, help="similarity threshold"
    )
    parser.add_argument(
        "--seed", type=int, default=defaults.seed, help="generator seed"
    )
    parser.add_argument(
        "--decode",
        choices=DECODE_METHODS,
        default=defaults.decode,
        help="integer readout method",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="diagnostics on stderr"
    )
    parser.add_argument(
        "--session", default=None, help="binary session file to restore/save"
    )
    parser.add_argument(
        "--raw-ints",
        action="store_true",
        help="print integers in [0, range) instead of the symmetric window",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("repl", help="interactive session")
    run_p = sub.add_parser("run", help="evaluate a script file")
    run_p.add_argument("script", help="path to a .vl source file")
    bench_p = sub.add_parser("bench", help="addition cost comparison")
    bench_p.add_argument(
        "--magnitudes",
        default=",".join(str(m) for m in DEFAULT_MAGNITUDES),
        help="comma-separated operand magnitudes",
    )
    bench_p.add_argument("--reps", type=int, default=20, help="repetitions")
    bench_p.add_argument("--out", default="bench_results.csv", help="CSV path")
    bench_p.add_argument(
        "--plot-data",
        dest="plot_data",
        default=None,
        help="prefix for two-column gnuplot dumps",
    )
    return parser


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}")


def make_config(args: argparse.Namespace) -> Config:
    if args.dim < 64:
        raise ConfigError(f"dimension must be at least 64, got {args.dim}")
    return Config(
        dim=args.dim,
        moduli=_parse_ints(args.moduli, "moduli"),
        theta=args.theta,
        seed=args.seed,
        decode=args.decode,
    )


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(f"# {message}", file=sys.stderr)


def _open_session(args: argparse.Namespace, config: Config) -> Session:
    if args.session and Path(args.session).exists():
        session = Session.restore(args.session, config)
        _note(args, f"restored session from {args.session}")
    else:
        session = Session(config)
    session.display_raw = args.raw_ints
    _note(
        args,
        f"dim={session.config.dim} moduli={','.join(str(m) for m in session.moduli)} "
        f"theta={session.config.theta} seed={session.config.seed} "
        f"decode={session.config.decode}",
    )
    return session


def _save_session(session: Session, args: argparse.Namespace) -> None:
    if args.session:
        session.save(args.session)
        _note(args, f"saved session to {args.session}")


def _meta_command(session: Session, line: str, last) -> None:
    parts = line.split()
    if parts[0] == ":env":
        for name in session.memory.names(kind="symbol"):
            print(name)
        return
    if parts[0] == ":sim":
        if len(parts) != 3:
            print("ERROR:eval: usage: :sim <name> <name>")
            return
        from .fhrr import similarity

        missing = [p for p in parts[1:] if p not in session.memory]
        if missing:
            print(f"ERROR:no-match: unknown symbol {missing[0]!r}")
            return
        s = similarity(session.memory.vector(parts[1]), session.memory.vector(parts[2]))
        print(f"{s:.4f}")
        return
    if parts[0] == ":decode":
        if last is None:
            print("ERROR:eval: nothing evaluated yet")
            return
        x, conf = session.force_decode(last)
        print(f"{session.display_int(x)} raw={x} confidence={conf:.4f}")
        return
    print(f"ERROR:eval: unknown meta-command {parts[0]}")


def repl(session: Session, args: argparse.Namespace) -> int:
    interactive = sys.stdin.isatty()
    last = None
    while True:
        if interactive:
            sys.stdout.write("vl> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            break
        try:
            if line.startswith(":"):
                _meta_command(session, line, last)
                continue
            for expr in parse_program(line):
                last = session.eval_expr(expr)
                print(session.print_value(last))
        except PhasorError as exc:
            print(f"ERROR:{exc.kind}: {exc}")
    _save_session(session, args)
    return 0


def run_script(session: Session, args: argparse.Namespace) -> int:
    path = Path(args.script)
    try:
        source = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SessionIOError(f"no such file: {path}")
    except UnicodeDecodeError as exc:
        raise SessionIOError(f"{path} is not UTF-8 text: {exc}")
    for output in session.eval_source(source):
        print(output)
    _save_session(session, args)
    return 0


def bench_command(args: argparse.Namespace, config: Config) -> int:
    magnitudes = _parse_ints(args.magnitudes, "magnitudes")
    results = run_benchmark(magnitudes, reps=args.reps, config=config)
    try:
        write_csv(results, args.out)
        plot_paths = (
            write_plot_data(results, args.plot_data) if args.plot_data else []
        )
    except OSError as exc:
        raise SessionIOError(f"cannot write results: {exc}")
    print(f"rhc flatness ratio: {flatness_ratio(results, 'rhc'):.2f}")
    print(f"list growth exponent: {growth_exponent(results, 'list'):.2f}")
    print(f"wrote {args.out}")
    for p in plot_paths:
        print(f"wrote {p}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command or "repl"
    try:
        config = make_config(args)
        if command == "bench":
            return bench_command(args, config)
        session = _open_session(args, config)
        if command == "repl":
            return repl(session, args)
        return run_script(session, args)
    except ParseError as exc:
        print(f"ERROR:{exc.kind}: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InvalidModuliError, SessionIOError) as exc:
        print(f"ERROR:{exc.kind}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR:io: {exc}", file=sys.stderr)
        return 2
    except PhasorError as exc:
        print(f"ERROR:{exc.kind}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
