"""Command-line front end: run, validate, list-registry.

``qfbsde run <config>`` executes an experiment file and exits with the
runner's status (0 pass, 2 threshold failure, 1 error).  ``validate``
parses without running and prints every diagnostic, one per line.
``list-registry`` prints the named drifts, terminals, drivers and
growth profiles together with their parameters and defaults.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .registry import describe_registry
from .runner import run


def _load_config(path: str):
    """The parsed config at ``path``, or ``None`` after reporting why not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    try:
        return parse_config(text)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"{path}:{diag}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    return 1 if config is None else run(config)


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return 1
    print(f"{args.config}: OK ({config.kind} experiment, "
          f"seed {config.numerics['seed']})")
    return 0


def _cmd_list_registry(_args) -> int:
    registry = describe_registry()
    for family, rows in registry.items():
        print(f"{family}:")
        for name, info in rows.items():
            if info["params"]:
                params = ", ".join(f"{k}={v!r}" for k, v in
                                   info["params"].items())
                print(f"  {name} ({params})")
            else:
                print(f"  {name}")
            print(f"      {info['doc']}")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfbsde",
        description="Monte-Carlo laboratory for quadratic FBSDEs "
                    "with rough drift.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse a config without running")
    p_val.add_argument("config", help="path to the config file")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list-registry",
                            help="show the named problem ingredients")
    p_list.set_defaults(func=_cmd_list_registry)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
