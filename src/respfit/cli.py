"""Command-line entry point.

    respfit run-example ex1 [--seed N] [--sigma S] [--out DIR]
    respfit run-config experiment.cfg
    respfit run-summary --seeds 1,2,3 --out DIR

Exit codes: 0 success, 1 configuration error (including usage errors),
2 solver failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, SolverError, naming
from .experiments import (
    ALGORITHMS,
    PRESETS,
    parse_config_file,
    run_config,
    run_example,
    run_summary,
    summary_table,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for solver
    # failures here, so usage problems are funneled into exit code 1
    def error(self, message):
        raise _UsageError(message)


def _print_record(record: dict) -> None:
    """Print a run's summary.json record, its algorithms in ALGORITHMS order."""
    truth = record["truth"]
    print(f"{record['example']}  seed={record['seed']}  sigma={record['sigma']:g}")
    print(f"  truth      alpha={truth['alpha']:.4f}  beta={truth['beta']:.4f}")
    for algo in ALGORITHMS:
        if algo not in record:
            continue
        fit, err = record[algo]["best_fit"], record[algo]["rel_err_pct"]
        print(
            f"  {algo.upper():<9}  alpha={fit['alpha']:.4f}  beta={fit['beta']:.4f}"
            f"  err%=({err['alpha']:.2f}, {err['beta']:.2f})"
            f"  iterations={record[algo]['iterations']}"
        )


def _cmd_run_example(args) -> int:
    with naming("--out", OSError):
        record = run_example(args.example, seed=args.seed, sigma=args.sigma, out_dir=args.out)
    _print_record(record)
    return 0


def _cmd_run_config(args) -> int:
    with naming("config", OSError):
        config = parse_config_file(args.config)
    with naming("out_dir", OSError):
        record = run_config(config)
    _print_record(record)
    return 0


def _cmd_run_summary(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"seeds: expected comma-separated integers, got {args.seeds!r}") from None
    with naming("--out", OSError):
        aggregates = run_summary(seeds, args.out)
    sys.stdout.write(summary_table(aggregates))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="respfit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("run-example", help="replay a preset experiment")
    p_ex.add_argument("example", choices=sorted(PRESETS))
    p_ex.add_argument("--seed", type=int, default=None, help="override the preset seed")
    p_ex.add_argument("--sigma", type=float, default=None, help="override the noise level")
    p_ex.add_argument("--out", default=None, help="output directory (default out_<example>)")
    p_ex.set_defaults(func=_cmd_run_example)

    p_cfg = sub.add_parser("run-config", help="run an experiment from a key=value file")
    p_cfg.add_argument("config", help="path to the config file")
    p_cfg.set_defaults(func=_cmd_run_config)

    p_sum = sub.add_parser("run-summary", help="replay all presets over several seeds")
    p_sum.add_argument("--seeds", default="1", help="comma-separated seed list (default 1)")
    p_sum.add_argument("--out", help="output directory (default out_summary)")
    p_sum.set_defaults(func=_cmd_run_summary)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
