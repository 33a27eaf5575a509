"""Command-line surface: perfect, imperfect, zx, and simulate subcommands.

Exit codes: 0 success, 1 internal failure, 2 configuration or input error.
Runs are deterministic for a fixed (config, seed); output files are written
atomically so a failed run never leaves a partial file behind.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .circuits import (
    CircuitParseError,
    ascii_float,
    ascii_int,
    parse_circuit,
    run_statevector,
)
from .jsonio import csv_text, json_text, write_text_atomic
from .qmath import StateVector

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
# Shot counts reach numpy's sampler as int64.
SHOTS_MAX = int(np.iinfo(np.int64).max)
# nohiding.VARIANT_TAGS, copied so that parsing a command line loads only the
# modules of the subcommand that runs; a test pins the copy.
VARIANT_TAGS = ("eq1", "eq2", "eq6")


class ConfigError(ValueError):
    pass


def _parse_shots(text: str) -> int | None:
    if text == "exact":
        return None
    try:
        shots = ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shots must be a positive integer or 'exact', got {text!r}"
        ) from None
    if not 1 <= shots <= SHOTS_MAX:
        raise argparse.ArgumentTypeError(f"shots must be between 1 and {SHOTS_MAX}")
    return shots


def _parse_seed(text: str) -> int:
    negative = text.startswith("-")
    try:
        seed = ascii_int(text[1:] if negative else text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if negative:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return seed


def _parse_p(text: str) -> float:
    try:
        return ascii_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="nohidelab",
        description="Quantum erasure / no-hiding simulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",)):
        p.add_argument("--seed", type=_parse_seed, default=0, help="base RNG seed")
        p.add_argument("--out", type=Path, default=None, help="output file path")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("perfect", help="run erasure plus recovery and tomograph the products")
    p.add_argument("--variant", choices=VARIANT_TAGS, default="eq2")
    p.add_argument("--shots", type=_parse_shots, default=None,
                   help="shot count, or 'exact' to bypass sampling (default)")
    common(p)

    p = sub.add_parser("imperfect", help="sweep the partial-bleaching weight p")
    p.add_argument("--p", type=_parse_p, action="append", default=None,
                   help="sweep point in [0,1]; repeatable")
    p.add_argument("--grid", choices=("default", "none"), default="default",
                   help="include the built-in sin^2(k pi/20) grid")
    p.add_argument("--shots", type=_parse_shots, default=None)
    common(p, formats=("json", "csv"))

    p = sub.add_parser("zx", help="run the scripted diagram derivation and simplifier")
    common(p)

    p = sub.add_parser("simulate", help="simulate a circuit file from |0...0>")
    p.add_argument("circuit_file", type=Path)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--format", choices=("json",), default="json")
    return parser


def _check_out_path(out: Path) -> None:
    """Reject an --out path the atomic write would fail on, before any work.
    The write lands in the directory of the path's resolved target."""
    if out.is_dir():
        raise ConfigError(f"--out {str(out)!r} is a directory")
    if not (parent := out.resolve().parent).is_dir():
        raise ConfigError(f"output directory {str(parent)!r} does not exist")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(out, text)


def _shots_field(shots: int | None):
    return "exact" if shots is None else shots


def _state_rows(amps: np.ndarray) -> np.ndarray:
    """Amplitudes as an (N, 2) float view of (re, im) rows, a jsonio leaf."""
    return np.ascontiguousarray(amps).view(np.float64).reshape(-1, 2)


def cmd_perfect(args) -> int:
    from . import nohiding, tomo

    result = nohiding.run_perfect(args.variant, shots=args.shots, seed=args.seed)
    payload = {
        "command": "perfect",
        "variant": args.variant,
        "shots": _shots_field(args.shots),
        "seed": args.seed,
        "input_state": {"amplitudes": _state_rows(result.input_state.amplitudes)},
        "bell": {
            "qubits": list(result.bell_pair),
            "fidelity_exact": result.bell_fidelity,
            "tomography": tomo.report_dict(result.bell_tomo),
        },
        "transfer": {
            "qubit": result.transfer_qubit,
            "fidelity_exact": result.transfer_fidelity,
            "tomography": tomo.report_dict(result.transfer_tomo),
        },
    }
    _emit(json_text(payload), args.out)
    return EXIT_OK


def cmd_imperfect(args) -> int:
    from . import nohiding

    p_values = list(nohiding.DEFAULT_SWEEP_GRID) if args.grid == "default" else []
    if args.p:
        p_values.extend(args.p)
    if not p_values:
        raise ConfigError("no sweep points: pass --p or use --grid default")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"sweep point p={p!r} outside [0, 1]")
    records = nohiding.run_sweep(p_values, args.shots, args.seed)
    if args.format == "csv":
        text = csv_text(nohiding.SWEEP_FIELDS, records)
    else:
        text = json_text({
            "command": "imperfect",
            "shots": _shots_field(args.shots),
            "seed": args.seed,
            "records": nohiding.sweep_rows(records),
        })
    _emit(text, args.out)
    return EXIT_OK


def cmd_zx(args) -> int:
    from . import zx

    try:
        derivation = zx.run_scripted_derivation()
    except zx.DerivationError as exc:
        print(f"derivation failed at stage {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    simplified, simplify_steps = zx.simplify(derivation.initial)
    payload = {
        "command": "zx",
        "seed": args.seed,
        "derivation": {
            "stages": list(derivation.stage_labels),
            "stage_spans": [list(span) for span in derivation.stage_spans],
            "steps": zx.steps_to_json_list(derivation.steps),
            "initial": zx.diagram_to_json_dict(derivation.initial),
            "final": zx.diagram_to_json_dict(derivation.final),
        },
        "simplify": {
            "steps": zx.steps_to_json_list(simplify_steps),
            "result": zx.diagram_to_json_dict(simplified),
        },
    }
    _emit(json_text(payload), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        text = args.circuit_file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # the latter is a ValueError
        raise ConfigError(f"cannot read circuit file {args.circuit_file}: {exc}") from exc
    try:
        circuit = parse_circuit(text)
    except CircuitParseError as exc:
        raise ConfigError(f"{args.circuit_file}: {exc}") from exc
    state = run_statevector(circuit, StateVector.ket("0" * circuit.num_qubits))
    payload = {
        "command": "simulate",
        "num_qubits": circuit.num_qubits,
        "amplitudes": _state_rows(state.amplitudes),
    }
    _emit(json_text(payload), args.out)
    return EXIT_OK


_COMMANDS = {
    "perfect": cmd_perfect,
    "imperfect": cmd_imperfect,
    "zx": cmd_zx,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.out is not None:
            _check_out_path(args.out)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # internal failure: report, never partial output
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
