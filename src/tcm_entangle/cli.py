"""Command-line interface.

Subcommands:

* ``fig1``   — PSI-family concurrence curve datasets (CSV, optional SVG)
* ``fig2``   — PHI-family datasets plus death-interval table
* ``verify`` — run the invariant and oracle-equivalence suites, one CSV
  line per suite or, with ``--json``, one JSON document
* ``sweep``  — curve emission over an explicit (alpha, epsilon) grid

``fig1``/``fig2`` without ``--config`` use the built-in figure defaults
(alpha in {pi/12, pi/8, pi/4}, epsilon in {0, 2}).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from . import config, figures, verify as verify_mod
from .config import ConfigError, RunConfig, parse_config
from .model import Family, ModelParams


def _figure_config(args, family: Family) -> RunConfig:
    if args.config is None:
        cfg = RunConfig(family=family,
                        alpha_list=figures.FIGURE_ALPHAS,
                        epsilon_list=figures.FIGURE_EPSILONS,
                        output_dir=args.out or RunConfig.output_dir,
                        emit_svg=args.svg)
    else:
        overrides = {}
        if args.out:
            overrides["output_dir"] = args.out
        if args.svg:
            overrides["emit_svg"] = True
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"), **overrides)
        if cfg.family is not family:
            raise ConfigError(f"this command requires family {family.value}, "
                              f"config says {cfg.family.value}")
    return cfg


def _cmd_fig(args, family: Family) -> int:
    for path in figures.run(_figure_config(args, family)):
        print(path)
    return 0


@contextlib.contextmanager
def _flag(name: str):
    """Re-raise a ``ValueError`` from reading a flag's value as an error
    that names the flag."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _cmd_verify(args) -> int:
    with _flag("--epsilon"):
        params = ModelParams(epsilon=args.epsilon)
    if args.dump_hamiltonian:
        path = _dump_hamiltonian(Path(args.dump_hamiltonian), params)
        if not args.json:   # stdout holds the document alone
            print(path)
    results = verify_mod.run_all(inject_fault=args.inject_fault)
    ok = all(res.passed for res in results)
    errors = {res.name: res.error for res in results if res.error is not None}
    if args.json:
        document = {"passed": ok, "suites": [res.record() for res in results],
                    "errors": errors}
        print(json.dumps(document, indent=1, sort_keys=True, allow_nan=False))
    else:
        for res in results:
            print(res.line())
        for name, message in errors.items():
            print(f"error: {name}: {message}", file=sys.stderr)
    return 0 if ok else 1


def _dump_hamiltonian(path: Path, params: ModelParams) -> Path:
    """Debug CSV of the full matrix, complex entries as `re+imi` pairs."""
    rows = [",".join(f"{z.real:+.9g}{z.imag:+.9g}i" for z in row)
            for row in params.hamiltonian.tolist()]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _cmd_sweep(args) -> int:
    values = {}
    for key in ("family", "alpha", "epsilon"):   # read as the config keys are
        name, parse = config._PARSERS[key]
        with _flag(f"--{key}"):
            values[name] = parse(getattr(args, key))
    cfg = RunConfig(**values, T_max=args.tmax, n_points=args.points,
                    output_dir=args.out, emit_svg=args.svg)
    for path in figures.run(cfg):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcm-entangle",
        description="Atom-atom entanglement dynamics in a two-mode "
                    "two-photon cavity: concurrence curves, sudden-death "
                    "windows and self-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("fig1", "fig2"):
        p = sub.add_parser(name, help=f"emit {name} curve datasets")
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--svg", action="store_true", help="also emit SVG overlays")

    p = sub.add_parser("verify", help="run invariant and equivalence suites")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="epsilon for --dump-hamiltonian")
    p.add_argument("--dump-hamiltonian", metavar="PATH",
                   help="write the full Hamiltonian matrix as CSV")
    p.add_argument("--json", action="store_true",
                   help="print one JSON document: per suite its name, residual, "
                        "threshold, pass flag and elapsed seconds, and the error "
                        "message of each suite that could not finish")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("sweep", help="emit curves over an explicit grid")
    p.add_argument("--family", required=True, choices=["PSI", "PHI", "psi", "phi"])
    p.add_argument("--alpha", required=True,
                   help="comma-separated angles, pi-expressions allowed")
    p.add_argument("--epsilon", required=True, help="comma-separated values")
    p.add_argument("--tmax", type=float, default=config.DEFAULT_T_MAX)
    p.add_argument("--points", type=int, default=config.DEFAULT_N_POINTS)
    p.add_argument("--out", default=RunConfig.output_dir)
    p.add_argument("--svg", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fig1":
            return _cmd_fig(args, Family.PSI)
        if args.command == "fig2":
            return _cmd_fig(args, Family.PHI)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
