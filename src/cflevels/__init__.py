"""Neighborhood collaborative filtering with co-rated-count similarity levels.

The package covers the full offline-benchmark loop: parse delimited rating
files, compute user-user similarities (plain and damped Pearson variants, a
static two-branch adjustment, and a multi-level adjustment whose bands are
derived from the dataset's own shape), predict ratings from k-nearest
neighborhoods, and score everything with error and top-N quality metrics
under seeded holdout or k-fold splits.
"""

from .errors import (CfLevelsError, ConfigError, EmptyInputError,
                     MalformedLineError, OutOfScaleRatingError,
                     TooFewItemsError, TooFewUsersError, UnknownUserError)
from .ratings import RatingRecord, RatingScale, RatingsMatrix, build_matrix
from .similarity import (METHOD_NAMES, PlusParams, SimilarityMethod,
                         StaticParams, apply_spcc, apply_static, apply_wpcc,
                         make_method, pcc, plus_adjust)
from .levels import (MIN_CO_RATED, NEGATIVE_FORMS, Band, LevelTable,
                     apply_dynamic, build_level_table, derive_dvi, derive_dvu,
                     derive_step, level_table_for)
from .predict import (PREDICTION_MODES, Prediction, neighborhood_for_item,
                      predict, recommend_top_n)
from .cache import SimilarityCache, get_or_compute
from .evaluate import (CSV_COLUMNS, EvalReport, PredictionPair, average_report,
                       default_relevance_threshold, evaluate_split, hit_rate,
                       kfold_split, mae, nmae, precision_recall_f1, render_csv,
                       render_json, rmse, run_experiment, split_holdout)
from .ingest import DatasetFormat, FORMATS, parse_ratings

__version__ = "0.1.0"

__all__ = [
    "CfLevelsError", "ConfigError", "EmptyInputError",
    "MalformedLineError", "OutOfScaleRatingError",
    "TooFewItemsError", "TooFewUsersError", "UnknownUserError",
    "RatingRecord", "RatingScale", "RatingsMatrix", "build_matrix",
    "METHOD_NAMES", "PlusParams", "SimilarityMethod", "StaticParams",
    "apply_spcc", "apply_static", "apply_wpcc", "make_method", "pcc",
    "plus_adjust",
    "MIN_CO_RATED", "NEGATIVE_FORMS", "Band", "LevelTable", "apply_dynamic",
    "build_level_table", "derive_dvi", "derive_dvu", "derive_step",
    "level_table_for",
    "PREDICTION_MODES", "Prediction", "neighborhood_for_item",
    "predict", "recommend_top_n",
    "SimilarityCache", "get_or_compute",
    "CSV_COLUMNS", "EvalReport", "PredictionPair",
    "average_report", "default_relevance_threshold", "evaluate_split",
    "hit_rate", "kfold_split", "mae", "nmae", "precision_recall_f1",
    "render_csv", "render_json", "rmse", "run_experiment", "split_holdout",
    "DatasetFormat", "FORMATS", "parse_ratings",
    "__version__",
]
