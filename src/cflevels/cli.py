"""Command-line surface: band inspection, evaluation sweeps, recommendations.

Value precedence everywhere is defaults < config file < command-line flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .cache import SimilarityCache
from .errors import (CfLevelsError, ConfigError, TooFewItemsError,
                     TooFewUsersError, UnknownUserError)
from .evaluate import (HIT_DEFS, METRICS, EvalReport, average_report, kfold_split,
                       render_csv, render_json, run_experiment, split_holdout)
from .ingest import FORMATS, DatasetFormat, parse_ratings
from .levels import NEGATIVE_FORMS, build_level_table
from .predict import PREDICTION_MODES, recommend_top_n
from .ratings import RatingScale, build_matrix
from .similarity import METHOD_NAMES, make_method

# a similarity knob's default: the --format preset's override, else make_method's
KNOB_DEFAULTS = dict(make_method.__kwdefaults__)
PRESET_PARAMS = {
    "movietweetings": {"big_t": 10},
    "epinions": {"big_t": 5, "t": 5, "y": 0.15},
}

# the rating-error metrics, listed first in METRICS: what `evaluate` fills
ERROR_METRICS = METRICS[:3]


def _checked(convert, ok, want: str):
    """An argparse ``type=``: ``convert`` the text, then require ``ok(value)``."""
    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {value!r}")
        return value
    return check


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, ">= 1")
_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")


def parse_methods(text: str) -> list[str]:
    """The ``type=`` of ``--methods``: known method names, duplicates dropped in order."""
    names = list(dict.fromkeys(part.strip() for part in text.split(",") if part.strip()))
    if not names or not set(names) <= set(METHOD_NAMES):
        raise argparse.ArgumentTypeError(
            f"expects a comma-separated list of {', '.join(METHOD_NAMES)}, got {text!r}")
    return names


def parse_k_sweep(text: str) -> list[int]:
    """The ``type=`` of ``--k-sweep``: inclusive start:stop:step as the k values."""
    try:
        start, stop, step = map(int, text.split(":"))
    except ValueError:  # not three fields, or one is not an integer
        raise argparse.ArgumentTypeError(f"expects start:stop:step, got {text!r}") from None
    if start < 1 or stop < start or step < 1:
        raise argparse.ArgumentTypeError(
            f"needs 1 <= start <= stop and step >= 1, got {text!r}")
    return list(range(start, stop + 1, step))


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="cflevels",
        description="Neighborhood collaborative filtering benchmarks with "
                    "co-rated-count similarity adjustments.")
    subs = parser.add_subparsers(dest="command", required=True)

    # the flag groups several commands share, each declared once; a parent's
    # Action objects are shared by every subcommand that lists it
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--ratings", help="path to the delimited ratings file")
    dataset.add_argument("--format", choices=FORMATS, default="custom",
                         help="file layout preset (default: %(default)s)")
    dataset.add_argument("--delimiter", type=_checked(str, bool, "non-empty"),
                         help="field delimiter override (custom default: any whitespace)")
    dataset.add_argument("--scale-min", type=_FINITE, help="lowest valid rating")
    dataset.add_argument("--scale-max", type=_FINITE, help="highest valid rating")
    dataset.add_argument("--skip-bad-lines", action="store_true",
                         help="log and skip malformed lines instead of failing")
    dataset.add_argument("--config", help="flat key=value file merged below flags")

    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", choices=METHOD_NAMES, default="pcc",
                        help="similarity method (default: %(default)s)")
    method.add_argument("--t", type=_AT_LEAST_1,
                        help="co-rated threshold of the static method (default: per --format)")
    method.add_argument("--y", type=_FINITE,
                        help="correlation threshold of the static method "
                             "(default: per --format)")
    method.add_argument("--T", type=_AT_LEAST_1, dest="big_t",
                        help="co-rated cutoff of the wpcc method (default: per --format)")
    method.add_argument("--alpha", type=_POSITIVE, default=KNOB_DEFAULTS["alpha"],
                        help="power-law scale factor (default: %(default)s)")
    method.add_argument("--beta", type=_POSITIVE, default=KNOB_DEFAULTS["beta"],
                        help="power-law exponent (default: %(default)s)")
    method.add_argument("--negative-form", choices=NEGATIVE_FORMS,
                        default=KNOB_DEFAULTS["negative_form"],
                        help="dynamic method's below-threshold formula (default: %(default)s)")
    method.add_argument("--prediction", choices=PREDICTION_MODES, default="resnick",
                        help="rating combiner (default: %(default)s)")
    method.add_argument("--k", type=_AT_LEAST_1, default=40,
                        help="neighborhood size (default: %(default)s)")

    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--methods", type=parse_methods,
                            help="comma-separated method list (overrides --method)")
    experiment.add_argument("--k-sweep", type=parse_k_sweep,
                            help="inclusive start:stop:step neighborhood sweep")
    experiment.add_argument("--train", type=_checked(float, lambda v: 0 < v < 1, "in (0,1)"),
                            default=0.8, help="holdout training fraction (default: %(default)s)")
    experiment.add_argument("--folds", type=_checked(int, lambda v: v >= 2, ">= 2"),
                            help="cross-validate with this many folds instead of a holdout")
    experiment.add_argument("--seed", type=int, default=42,
                            help="split shuffle seed (default: %(default)s)")
    experiment.add_argument("--jobs", type=_AT_LEAST_1, default=1,
                            help="kept for existing command lines: folds run in order, "
                                 "so the value changes neither output nor speed")
    experiment.add_argument("--output", help="write rows here instead of stdout")
    experiment.add_argument("--out-format", choices=("csv", "json"), default="csv",
                            help="row format (default: %(default)s)")
    experiment.add_argument("--timing", action="store_true",
                            help="fill the seconds column with measured wall time")

    levels = subs.add_parser("levels", parents=[dataset],
                             help="print the co-rated bands a dataset derives")
    levels.set_defaults(handler=cmd_levels)

    evaluate = subs.add_parser("evaluate", parents=[dataset, method, experiment],
                               help="rating-error benchmark (MAE/NMAE/RMSE)")
    evaluate.set_defaults(handler=cmd_sweep)
    evaluate.add_argument("--metric", choices=(*ERROR_METRICS, "all"), default="all",
                          help="report only this error metric (default: %(default)s)")

    topn = subs.add_parser("topn", parents=[dataset, method, experiment],
                           help="recommendation-quality benchmark (precision/recall/F1/hit rate)")
    topn.set_defaults(handler=cmd_sweep)
    topn.add_argument("--r", type=_AT_LEAST_1, help="recommendations per user (required)")
    topn.add_argument("--relevance", type=_FINITE,
                      help="test rating at or above this counts as relevant "
                           "(default: top quarter of the scale)")
    topn.add_argument("--hit-def", choices=HIT_DEFS, default="correct",
                      help="what counts as a user's hit (default: %(default)s)")

    recommend = subs.add_parser("recommend", parents=[dataset, method],
                                help="print one user's top-N items")
    recommend.set_defaults(handler=cmd_recommend)
    recommend.add_argument("--user", help="user id to recommend for (required)")
    recommend.add_argument("--r", type=_AT_LEAST_1, help="number of recommendations (required)")

    return parser, subs.choices


# ---------------------------------------------------------------------------
# config file merge and default resolution
# ---------------------------------------------------------------------------

def read_config(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    entries: dict[str, str] = {}
    # undecodable bytes become lone surrogates, so they fail on their own line
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text")
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _convert_config_value(action: argparse.Action, raw: str, path: str, key: str):
    if action.const is True and action.nargs == 0:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{path}: {key} expects a boolean, got {raw!r}")
    typ = action.type or str
    try:
        value = typ(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{path}: bad value for {key}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"{path}: {key} must be one of {', '.join(map(str, action.choices))}, got {raw!r}")
    return value


# a config entry that a narrower flag on the command line overrides, so that
# an explicit --k beats the file's k-sweep and --method the file's methods
_NARROWED_BY = {"k_sweep": "k", "methods": "method"}


def apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                 sub: argparse.ArgumentParser, argv) -> None:
    """Set ``args`` from ``args.config``'s entries, checked like ``sub``'s flags; ``argv``'s flags win."""
    options: dict[str, argparse.Action] = {}
    for action in sub._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                options[opt[2:].replace("-", "_")] = action
    values = {}
    for key, raw in read_config(args.config).items():
        action = options.get(key)
        if action is None or key in ("config", "help"):
            raise ConfigError(f"{args.config}: unknown config key {key!r}")
        values[action.dest] = _convert_config_value(action, raw, args.config, key)
    # the dests argv itself sets: parse it again with sub's defaults suppressed,
    # then put them back, as the flag-group parents share these actions
    defaults = {action: action.default for action in sub._actions}
    for action in defaults:
        action.default = argparse.SUPPRESS
    try:
        given = vars(parser.parse_args(argv))
    finally:
        for action, default in defaults.items():
            action.default = default
    for dest, value in values.items():
        if dest not in given and _NARROWED_BY.get(dest) not in given:
            setattr(args, dest, value)


def fill_defaults(args: argparse.Namespace) -> None:
    """Fill unset values from --format's preset or make_method; require --ratings,
    --user and --r; then require --scale-min below --scale-max."""
    fmt = FORMATS[args.format]
    unset = {**KNOB_DEFAULTS, **PRESET_PARAMS.get(args.format, {}), "delimiter": fmt.delimiter,
             "scale_min": fmt.scale.rmin, "scale_max": fmt.scale.rmax}
    for dest, value in unset.items():
        if getattr(args, dest, 0) is None:
            setattr(args, dest, value)
    for dest in ("ratings", "user", "r"):  # a command without the flag has no dest
        if getattr(args, dest, 0) is None:
            raise ConfigError(f"--{dest} is required")
    if args.scale_min >= args.scale_max:
        raise ConfigError("--scale-min must be below --scale-max, "
                          f"got {args.scale_min} >= {args.scale_max}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def load_matrix(args: argparse.Namespace):
    fmt = DatasetFormat(args.delimiter, FORMATS[args.format].columns,
                        RatingScale(args.scale_min, args.scale_max))
    records = parse_ratings(args.ratings, fmt, skip_bad_lines=args.skip_bad_lines)
    if not records:
        raise TooFewUsersError(f"{args.ratings}: no ratings")
    return build_matrix(records, fmt.scale)


def resolve_methods(args: argparse.Namespace) -> list:
    return [make_method(name, t=args.t, y=args.y, big_t=args.big_t,
                        alpha=args.alpha, beta=args.beta,
                        negative_form=args.negative_form)
            for name in getattr(args, "methods", None) or [args.method]]


def run_sweep(args: argparse.Namespace, metrics: str) -> list[EvalReport]:
    """One run_experiment call per (method, fold), running the folds in order.

    Each call serves every k of the sweep from one pass over the fold's test
    records. A fold's methods share one sibling cache set, so each pair's
    base is computed once, and one fold is alive at a time. Rows come
    method-major, then k, then fold.
    """
    matrix = load_matrix(args)
    methods = resolve_methods(args)
    for method in methods:  # the whole file meets each floor; each split must too
        method.adjust(0.0, 0, matrix)
    ks = args.k_sweep or [args.k]
    if args.folds is not None:
        splits = kfold_split(matrix, args.folds, args.seed)
    else:
        splits = [split_holdout(matrix, args.train, args.seed)]
    # topn's own knobs; evaluate leaves them at run_experiment's defaults
    knobs = {name: getattr(args, name) for name in ("r", "relevance", "hit_def")
             if hasattr(args, name)}

    by_fold = []
    for train, test in splits:
        caches = SimilarityCache.siblings(methods, train)
        by_fold.append([report for method, cache in zip(methods, caches)
                        for report in run_experiment(
                            train, test, method, ks=ks,
                            fold=len(by_fold) if args.folds is not None else None,
                            prediction=args.prediction, metrics=metrics,
                            cache=cache, **knobs)])
        del train, test, caches  # before the next fold is cut

    rows: list[EvalReport] = []
    for group in zip(*by_fold):  # one (method, k) cell, fold by fold
        rows.extend(group)
        if args.folds is not None:
            rows.append(average_report(list(group)))
    return rows


def write_rows(args: argparse.Namespace, rows: list[EvalReport]) -> None:
    if args.out_format == "json":
        text = render_json(rows, include_timing=args.timing)
    else:
        text = render_csv(rows, include_timing=args.timing)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_levels(args: argparse.Namespace) -> int:
    matrix = load_matrix(args)
    table = build_level_table(matrix.user_count, matrix.item_count)
    lines = [f"users: {matrix.user_count}",
             f"items: {matrix.item_count}",
             f"DvU: {table.dvu}",
             f"DvI: {table.dvi}",
             f"step: {table.step}"]
    for n, band in enumerate(table.bands, start=1):
        if band.upper is None:
            span = f"co-rated >= {band.lower}"
        else:
            span = f"co-rated {band.lower}-{band.upper}"
        lines.append(f"level {n}: {span} -> s + s/{band.divisor}")
    lines.append(f"below {table.min_co_rated} co-rated: negative adjustment")
    print("\n".join(lines))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = run_sweep(args, metrics="accuracy" if args.command == "evaluate" else "topn")
    if getattr(args, "metric", "all") != "all":
        rows = [row._replace(**{name: None for name in ERROR_METRICS if name != args.metric})
                for row in rows]
    write_rows(args, rows)
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    matrix = load_matrix(args)
    method = resolve_methods(args)[0]
    recs = recommend_top_n(args.user, args.r, args.k, method, matrix,
                           mode=args.prediction)
    for item, value in recs:
        print(f"{item}\t{value:.6f}")
    return 0


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at os.devnull so the final flush stays quiet."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    """Run one command; exit code 0 ok, 1 runtime/data error, 2 usage error.

    A stdout whose reader went away (``cflevels ... | head``) is not an
    error of the run: it exits 0 and prints nothing to stderr.
    """
    parser, by_name = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            apply_config(args, parser, by_name[args.command], argv)
        fill_defaults(args)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 0
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return 2
    except (ConfigError, TooFewUsersError, TooFewItemsError, UnknownUserError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CfLevelsError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
