"""The ``variety`` command line tool.

Subcommands:

* ``compute``      - variety of a joint distribution stored as JSON
* ``theoretical``  - continuous and discretized model values by quadrature
* ``simulate``     - ratio/sample-size sweep written to CSV or JSON
* ``analyze``      - survey files: per-question metrics, group comparison

Exit codes: 0 success, 2 validation/contract errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .distributions import JointDistribution
from .divergence import f_variety, get_kind
from .errors import ConfigError, IoError, VarietyError
from .experiments import (
    DEFAULT_RATIOS,
    DEFAULT_SAMPLE_SIZES,
    SweepConfig,
    run_sweep,
    write_sweep,
)
from .sampling import RandomStream
from .survey import RespondentFilter, analyze, load_survey
from .synthesis import PopulationModel, _model_varieties, get_preset

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise VarietyError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise VarietyError(f"{path} is not valid UTF-8: {exc}") from exc


def _resolve_model(args: argparse.Namespace) -> PopulationModel:
    if args.model is not None:
        return PopulationModel.from_json_dict(_load_json(args.model))
    return get_preset(args.preset)


def _comma_list(text: str, option: str, noun: str, convert: type = str) -> tuple:
    """The entries of a comma-list option, stripped and converted; empty
    entries are skipped, and a list without entries is an error."""
    try:
        values = tuple(convert(v.strip()) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(
            f"{option} must be comma-separated {convert.__name__} values, got {text!r}"
        ) from None
    if not values:
        raise ConfigError(f"{option} names no {noun}, got {text!r}")
    return values


def _cmd_compute(args: argparse.Namespace) -> int:
    dist = JointDistribution.from_json_dict(_load_json(args.joint))
    kinds = [get_kind(name) for name in _comma_list(args.divergence, "--divergence", "kind")]
    for kind in kinds:
        print(f"{kind.name} {f_variety(dist, kind):.12g}")
    return EXIT_OK


def _cmd_theoretical(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    kinds = [get_kind(name) for name in _comma_list(args.divergence, "--divergence", "kind")]
    _, conts, discs = _model_varieties(model, kinds, tol=args.tol)
    for kind, cont, disc in zip(kinds, conts, discs):
        print(f"{kind.name} continuous {cont:.12g}")
        print(f"{kind.name} discretized {disc:.12g}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    config = SweepConfig(
        model=_resolve_model(args),
        ratios=_comma_list(args.ratios, "--ratios", "ratio", float),
        sample_sizes=_comma_list(args.sizes, "--sizes", "size", int),
        trials_per_point=args.trials,
        divergences=_comma_list(args.divergence, "--divergence", "kind"),
        base_seed=args.seed,
    )
    rows = run_sweep(config)
    fmt = args.format or ("json" if args.out.endswith(".json") else "csv")
    write_sweep(rows, args.out, format=fmt)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset = load_survey(args.responses, args.respondents)
    if args.questions is not None:
        question_ids = _comma_list(args.questions, "--questions", "question")
    else:
        question_ids = [q.question_id for q in dataset.questions]
    filter_a = RespondentFilter.parse(args.filter) if args.filter else None
    filter_b = RespondentFilter.parse(args.filter_b) if args.filter_b else None
    report = analyze(
        dataset,
        question_ids,
        filter_a,
        filter_b,
        kind=get_kind(args.divergence),
        trials=args.trials,
        stream=RandomStream(args.seed),
    )
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_table()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_model_options(p: argparse.ArgumentParser) -> None:
    """The model and kind list of ``theoretical`` and ``simulate``."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="path to a population-model JSON file")
    group.add_argument("--preset", help="named preset model")
    p.add_argument("--divergence", default="tvd", help="comma-separated kind names")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="variety",
        description="Group-level informativeness metrics for choice-prediction surveys.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="variety of a stored joint distribution")
    p.add_argument("--joint", required=True, help="path to a joint-distribution JSON file")
    p.add_argument("--divergence", default="tvd", help="comma-separated kind names")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("theoretical", help="model values by quadrature")
    _add_model_options(p)
    p.add_argument("--tol", type=float, default=1e-8, help="quadrature tolerance")
    p.set_defaults(func=_cmd_theoretical)

    p = sub.add_parser("simulate", help="ratio/sample-size sweep")
    _add_model_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100, help="trials per grid point")
    p.add_argument(
        "--ratios",
        default=",".join(f"{r:g}" for r in DEFAULT_RATIOS),
        help="comma-separated non-expert ratios",
    )
    p.add_argument(
        "--sizes",
        default=",".join(str(n) for n in DEFAULT_SAMPLE_SIZES),
        help="comma-separated sample sizes",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored (must be >= 1): a sweep runs in one process",
    )
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="survey metrics and group comparisons")
    p.add_argument("--responses", required=True, help="responses CSV path")
    p.add_argument("--respondents", required=True, help="respondent attributes CSV path")
    p.add_argument("--questions", default=None, help="comma-separated question ids (default: all)")
    p.add_argument("--filter", default=None, help='group A filter, e.g. "watch=often"')
    p.add_argument("--filter-b", dest="filter_b", default=None, help="group B filter")
    p.add_argument("--divergence", default="tvd")
    p.add_argument("--trials", type=int, default=1000, help="subsampling repetitions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VarietyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
