"""Command-line front end.

Subcommands: `diagram` prints the ASCII diagram of a .qdc file, `simulate`
prints the final state vector, `run` samples measurements and prints one
"key=digits" line per key, `bench` runs the scaling sweep and writes CSV.

Exit codes: 0 success, 1 usage or file I/O error, 2 circuit parse or
validation error, including a state too large for physical memory. When
--seed is omitted for a sampling command, a 64-bit seed is drawn from OS
entropy and echoed on stderr for reproducibility.
"""

from __future__ import annotations

import argparse
import math
import secrets
import sys

from .bench import BenchConfig, frontier_is_monotonic, scaling_sweep, write_csv
from .circuit import render_diagram
from .simulator import basis_state, run, simulate
from .textio import CircuitParseError, format_state, parse_circuit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {value}")
    return value


def _threshold_value(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"threshold must be finite, got {value}")
    return value


def _dims_value(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _build_parser() -> _Parser:
    parser = _Parser(prog="quditsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="print the ASCII diagram of a circuit file")
    p.add_argument("file")

    p = sub.add_parser("simulate", help="print the final state vector of a circuit file")
    p.add_argument("file")
    p.add_argument("--threshold", type=_threshold_value, default=1e-6,
                   help="minimum amplitude magnitude to display")
    p.add_argument("--initial", help="starting basis state digits, e.g. 012 (or comma-separated)")
    p.add_argument("--seed", type=_seed_value, help="seed for any measurement sampling")

    p = sub.add_parser("run", help="sample circuit measurements over repetitions")
    p.add_argument("file")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=_seed_value)

    p = sub.add_parser("bench", help="random-circuit scaling sweep")
    p.add_argument("--dims", type=_dims_value, required=True, help="comma-separated dimensions")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--budget", type=float, default=60.0, help="wall-time budget per run, seconds")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--max-qudits", type=int, default=32)
    p.add_argument("--seed", type=_seed_value)
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    return parser


def _parse_file(path: str):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    circuit, _, _ = parse_circuit(text)
    return circuit


def _resolve_seed(given: int | None) -> int:
    if given is not None:
        return given
    seed = secrets.randbits(64)
    print(f"seed={seed}", file=sys.stderr)
    return seed


def _parse_initial(text: str) -> list[int]:
    parts = text.split(",") if "," in text else list(text)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad initial state digits '{text}'")


def _cmd_diagram(args) -> int:
    print(render_diagram(_parse_file(args.file)))
    return 0


def _cmd_simulate(args) -> int:
    circuit = _parse_file(args.file)
    initial = None
    if args.initial is not None:
        initial = basis_state(circuit.dims, _parse_initial(args.initial))
    seed = args.seed
    if seed is None and circuit.has_measurements():
        seed = _resolve_seed(None)
    final, _ = simulate(circuit, initial=initial, seed=seed)
    print(format_state(final, threshold=args.threshold))
    return 0


def _cmd_run(args) -> int:
    circuit = _parse_file(args.file)
    result = run(circuit, args.reps, seed=_resolve_seed(args.seed))
    for line in result.table.lines():
        print(line)
    return 0


def _cmd_bench(args) -> int:
    config = BenchConfig(
        dims=args.dims,
        depth=args.depth,
        budget_per_run=args.budget,
        max_qudits=args.max_qudits,
        seed=_resolve_seed(args.seed),
        repetitions=args.reps,
    )
    rows = scaling_sweep(
        config,
        progress=lambda row: print(
            f"d={row.dimension} n={row.n_qudits} wall={row.wall_seconds:.3f}s "
            f"completed={str(row.completed).lower()}",
            file=sys.stderr,
        ),
    )
    if not frontier_is_monotonic(rows):
        print(
            "warning: completed-n frontier is not non-increasing in d on this machine",
            file=sys.stderr,
        )
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            write_csv(rows, handle)
    else:
        write_csv(rows, sys.stdout)
    return 0


_COMMANDS = {
    "diagram": _cmd_diagram,
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "bench": _cmd_bench,
}


def cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except CircuitParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
