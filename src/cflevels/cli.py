"""Command-line surface: band inspection, evaluation sweeps, recommendations.

Value precedence everywhere is defaults < config file < command-line flags.
Flags therefore all default to None at the argparse level; actual defaults
are filled in after the config file (if any) has been merged.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from .cache import SimilarityCache, demand_of
from .errors import (CfLevelsError, ConfigError, TooFewItemsError,
                     TooFewUsersError, UnknownItemError, UnknownUserError)
from .evaluate import (HIT_DEFS, EvalReport, average_report, kfold_split,
                       render_csv, render_json, run_experiment, split_holdout)
from .ingest import FORMATS, DatasetFormat, parse_ratings
from .levels import NEGATIVE_FORMS, build_level_table
from .predict import PREDICTION_MODES, recommend_top_n
from .ratings import RatingScale, build_matrix
from .similarity import METHOD_NAMES, make_method

# per-dataset similarity settings; anything here is overridable by flags
PRESET_PARAMS = {
    "movielens-1m": {"big_t": 50, "t": 10, "y": 0.20},
    "movietweetings": {"big_t": 10, "t": 10, "y": 0.20},
    "epinions": {"big_t": 5, "t": 5, "y": 0.15},
    "custom": {"big_t": 50, "t": 10, "y": 0.20},
}

_CUSTOM_FORMAT = DatasetFormat(delimiter=None, columns=("user", "item", "rating"),
                               scale=RatingScale(1.0, 5.0))


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="cflevels",
        description="Neighborhood collaborative filtering benchmarks with "
                    "co-rated-count similarity adjustments.")
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, argparse.ArgumentParser] = {}

    def add_dataset_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--ratings", help="path to the delimited ratings file")
        sub.add_argument("--format", choices=sorted(FORMATS) + ["custom"],
                         help="file layout preset (default: custom)")
        sub.add_argument("--delimiter", help="field delimiter override "
                         "(custom default: any whitespace)")
        sub.add_argument("--scale-min", type=float, dest="scale_min",
                         help="lowest valid rating")
        sub.add_argument("--scale-max", type=float, dest="scale_max",
                         help="highest valid rating")
        sub.add_argument("--skip-bad-lines", action="store_true", default=None,
                         dest="skip_bad_lines",
                         help="log and skip malformed lines instead of failing")
        sub.add_argument("--config", help="flat key=value file merged below flags")

    def add_method_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--method", choices=METHOD_NAMES,
                         help="similarity method (default: pcc)")
        sub.add_argument("--t", type=int, help="co-rated threshold of the static method")
        sub.add_argument("--y", type=float, help="correlation threshold of the static method")
        sub.add_argument("--T", type=int, dest="big_t",
                         help="co-rated cutoff of the wpcc method")
        sub.add_argument("--alpha", type=float, help="power-law scale factor")
        sub.add_argument("--beta", type=float, help="power-law exponent")
        sub.add_argument("--negative-form", choices=NEGATIVE_FORMS, dest="negative_form",
                         help="dynamic method's below-threshold formula (default: eq4)")
        sub.add_argument("--prediction", choices=PREDICTION_MODES,
                         help="rating combiner (default: resnick)")
        sub.add_argument("--k", type=int, help="neighborhood size (default: 40)")

    def add_experiment_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--methods", help="comma-separated method list "
                         "(overrides --method)")
        sub.add_argument("--k-sweep", dest="k_sweep",
                         help="inclusive start:stop:step neighborhood sweep")
        sub.add_argument("--train", type=float,
                         help="holdout training fraction (default: 0.8)")
        sub.add_argument("--folds", type=int,
                         help="cross-validate with this many folds instead of a holdout")
        sub.add_argument("--seed", type=int, help="split shuffle seed (default: 42)")
        sub.add_argument("--jobs", type=int,
                         help="concurrent sweep cells (default: $CFLEVELS_JOBS or 1)")
        sub.add_argument("--output", help="write rows here instead of stdout")
        sub.add_argument("--out-format", choices=("csv", "json"), dest="out_format",
                         help="row format (default: csv)")
        sub.add_argument("--timing", action="store_true", default=None,
                         help="fill the seconds column with measured wall time")

    levels = subs.add_parser("levels", help="print the co-rated bands a dataset derives")
    add_dataset_flags(levels)
    by_name["levels"] = levels

    evaluate = subs.add_parser("evaluate", help="rating-error benchmark (MAE/NMAE/RMSE)")
    add_dataset_flags(evaluate)
    add_method_flags(evaluate)
    add_experiment_flags(evaluate)
    evaluate.add_argument("--metric", choices=("mae", "nmae", "rmse", "all"),
                          help="report only this error metric (default: all)")
    by_name["evaluate"] = evaluate

    topn = subs.add_parser("topn", help="recommendation-quality benchmark "
                           "(precision/recall/F1/hit rate)")
    add_dataset_flags(topn)
    add_method_flags(topn)
    add_experiment_flags(topn)
    topn.add_argument("--r", type=int, help="recommendations per user (required)")
    topn.add_argument("--relevance", type=float,
                      help="test rating at or above this counts as relevant "
                           "(default: top quarter of the scale)")
    topn.add_argument("--hit-def", choices=HIT_DEFS, dest="hit_def",
                      help="what counts as a user's hit (default: correct)")
    by_name["topn"] = topn

    recommend = subs.add_parser("recommend", help="print one user's top-N items")
    add_dataset_flags(recommend)
    add_method_flags(recommend)
    recommend.add_argument("--user", help="user id to recommend for (required)")
    recommend.add_argument("--r", type=int, help="number of recommendations (required)")
    by_name["recommend"] = recommend

    return parser, by_name


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
    except ValueError:
        raise ConfigError(f"{path}: bad value for {key}: {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"{path}: {key} must be one of {', '.join(map(str, action.choices))}, got {raw!r}")
    return value


def apply_config(args: argparse.Namespace, sub: argparse.ArgumentParser) -> None:
    """Merge config-file entries under any explicitly given flags."""
    if args.config is None:
        return
    options: dict[str, argparse.Action] = {}
    for action in sub._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                options[opt[2:].replace("-", "_")] = action
    for key, raw in read_config(args.config).items():
        action = options.get(key)
        if action is None or key in ("config", "help"):
            raise ConfigError(f"{args.config}: unknown config key {key!r}")
        value = _convert_config_value(action, raw, args.config, key)
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def _env_jobs() -> int:
    raw = os.environ.get("CFLEVELS_JOBS")
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"CFLEVELS_JOBS must be an integer, got {raw!r}") from None


def fill_defaults(args: argparse.Namespace) -> None:
    """Resolve every still-None option to its default, then range-check."""
    if getattr(args, "format", None) is None:
        args.format = "custom"
    preset = PRESET_PARAMS[args.format]
    defaults = {
        "skip_bad_lines": False,
        "method": "pcc",
        "t": preset["t"],
        "y": preset["y"],
        "big_t": preset["big_t"],
        "alpha": 100.0,
        "beta": 2.0,
        "negative_form": "eq4",
        "prediction": "resnick",
        "k": 40,
        "train": 0.8,
        "seed": 42,
        "hit_def": "correct",
        "metric": "all",
        "out_format": "csv",
        "timing": False,
    }
    for dest, value in defaults.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    if hasattr(args, "jobs") and args.jobs is None:
        args.jobs = _env_jobs()

    if args.ratings is None:
        raise ConfigError("--ratings is required")
    if hasattr(args, "k") and args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if hasattr(args, "train") and not 0.0 < args.train < 1.0:
        raise ConfigError(f"--train must be in (0,1), got {args.train}")
    if getattr(args, "folds", None) is not None and args.folds < 2:
        raise ConfigError(f"--folds must be >= 2, got {args.folds}")
    if hasattr(args, "jobs") and args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "r", None) is not None and args.r < 1:
        raise ConfigError(f"--r must be >= 1, got {args.r}")
    if hasattr(args, "t") and args.t < 1:
        raise ConfigError(f"--t must be >= 1, got {args.t}")
    if hasattr(args, "big_t") and args.big_t < 1:
        raise ConfigError(f"--T must be >= 1, got {args.big_t}")
    if getattr(args, "y", None) is not None and not math.isfinite(args.y):
        raise ConfigError(f"--y must be finite, got {args.y}")
    if getattr(args, "relevance", None) is not None and not math.isfinite(args.relevance):
        raise ConfigError(f"--relevance must be finite, got {args.relevance}")
    for flag in ("alpha", "beta"):
        value = getattr(args, flag, None)
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"--{flag} must be positive and finite, got {value}")


def parse_k_sweep(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--k-sweep expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--k-sweep expects integers, got {text!r}") from None
    if start < 1 or stop < start or step < 1:
        raise ConfigError(f"--k-sweep needs 1 <= start <= stop and step >= 1, got {text!r}")
    return list(range(start, stop + 1, step))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def resolve_format(args: argparse.Namespace) -> DatasetFormat:
    fmt = FORMATS.get(args.format, _CUSTOM_FORMAT)
    delimiter = args.delimiter if args.delimiter is not None else fmt.delimiter
    if delimiter == "":
        raise ConfigError("--delimiter must not be empty")
    rmin = args.scale_min if args.scale_min is not None else fmt.scale.rmin
    rmax = args.scale_max if args.scale_max is not None else fmt.scale.rmax
    if not (math.isfinite(rmin) and math.isfinite(rmax)):
        raise ConfigError(f"--scale-min and --scale-max must be finite, got {rmin} and {rmax}")
    if rmin >= rmax:
        raise ConfigError(f"--scale-min must be below --scale-max, got {rmin} >= {rmax}")
    if delimiter == fmt.delimiter and (rmin, rmax) == (fmt.scale.rmin, fmt.scale.rmax):
        return fmt
    return replace(fmt, delimiter=delimiter, scale=RatingScale(rmin, rmax))


def load_matrix(args: argparse.Namespace):
    fmt = resolve_format(args)
    records = parse_ratings(args.ratings, fmt, skip_bad_lines=args.skip_bad_lines)
    return build_matrix(records, fmt.scale)


def resolve_methods(args: argparse.Namespace) -> list:
    if getattr(args, "methods", None):
        names = [part.strip() for part in args.methods.split(",") if part.strip()]
        if not names:
            raise ConfigError(f"--methods lists no method names: {args.methods!r}")
    else:
        names = [args.method]
    seen = []
    for name in names:
        if name not in METHOD_NAMES:
            raise ConfigError(f"--methods: unknown method {name!r}; "
                              f"expected one of {', '.join(METHOD_NAMES)}")
        if name not in seen:
            seen.append(name)
    return [make_method(name, t=args.t, y=args.y, big_t=args.big_t,
                        alpha=args.alpha, beta=args.beta,
                        negative_form=args.negative_form) for name in seen]


def run_sweep(args: argparse.Namespace, metrics: str) -> list[EvalReport]:
    """One run_experiment call per (method, k, fold), ordered."""
    matrix = load_matrix(args)
    methods = resolve_methods(args)
    ks = parse_k_sweep(args.k_sweep) if args.k_sweep else [args.k]
    if args.folds is not None:
        splits = kfold_split(matrix, args.folds, args.seed)
    else:
        splits = [split_holdout(matrix, args.train, args.seed)]
    folds = range(len(splits))

    # one sibling cache set per fold, so every method's rows come from one base per pair;
    # accuracy reads only the raters of each user's test items; top-N reads whole rows
    caches = {}
    for fi, (train, test) in enumerate(splits):
        demand = demand_of(train, test) if metrics == "accuracy" else None
        for mi, cache in enumerate(SimilarityCache.siblings(methods, train, demand)):
            caches[(mi, fi)] = cache

    r = getattr(args, "r", None) or 20
    relevance = getattr(args, "relevance", None)
    hit_def = getattr(args, "hit_def", "correct")

    def cell_report(cell: tuple[int, int, int]) -> EvalReport:
        mi, k, fi = cell
        train, test = splits[fi]
        return run_experiment(train, test, methods[mi], k=k, r=r,
                              fold=fi if args.folds is not None else None,
                              relevance=relevance, hit_def=hit_def,
                              prediction=args.prediction, metrics=metrics,
                              cache=caches[(mi, fi)])

    cells = [(mi, k, fi) for mi in range(len(methods)) for k in ks for fi in folds]
    if args.jobs > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            reports = dict(zip(cells, pool.map(cell_report, cells)))
    else:
        reports = {cell: cell_report(cell) for cell in cells}

    rows: list[EvalReport] = []
    for mi in range(len(methods)):
        for k in ks:
            group = [reports[(mi, k, fi)] for fi in folds]
            rows.extend(group)
            if args.folds is not None:
                rows.append(average_report(group))
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


def cmd_evaluate(args: argparse.Namespace) -> int:
    rows = run_sweep(args, metrics="accuracy")
    if args.metric != "all":
        keep = args.metric
        rows = [replace(row,
                        mae=row.mae if keep == "mae" else None,
                        nmae=row.nmae if keep == "nmae" else None,
                        rmse=row.rmse if keep == "rmse" else None)
                for row in rows]
    write_rows(args, rows)
    return 0


def cmd_topn(args: argparse.Namespace) -> int:
    if args.r is None:
        raise ConfigError("--r is required")
    rows = run_sweep(args, metrics="topn")
    write_rows(args, rows)
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    if args.user is None:
        raise ConfigError("--user is required")
    if args.r is None:
        raise ConfigError("--r is required")
    matrix = load_matrix(args)
    method = resolve_methods(args)[0]
    recs = recommend_top_n(args.user, args.r, args.k, method, matrix,
                           mode=args.prediction)
    for item, value in recs:
        print(f"{item}\t{value:.6f}")
    return 0


COMMANDS = {
    "levels": cmd_levels,
    "evaluate": cmd_evaluate,
    "topn": cmd_topn,
    "recommend": cmd_recommend,
}


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
        apply_config(args, by_name[args.command])
        fill_defaults(args)
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 0
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return 2
    except (ConfigError, TooFewUsersError, TooFewItemsError,
            UnknownUserError, UnknownItemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CfLevelsError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
