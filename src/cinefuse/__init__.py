"""Hybrid movie recommendation engine.

Collaborative filtering over a dense user x item rating matrix (a
float64 per cell, NaN where unrated), content similarity over
preprocessed plot summaries, and a normalized critic-consensus bonus,
fused into one descending ranking. Includes GA/PSO similarity-weight
tuning, fuzzy genre profiles, implicit-feedback densification,
cold-start fallbacks, an MAE evaluation harness, and a CLI.
"""

from .catalog import (
    Catalog,
    CriticReview,
    ImplicitEvent,
    Movie,
    Rating,
    RatingScale,
    load_catalog,
    resolve_title,
    summary_stats,
    train_test_split,
)
from .cf import (
    Prediction,
    RatingMatrix,
    SimilarityMatrix,
    augment_implicit,
    build_rating_matrix,
    predict_many,
    predict_rating,
    recommend_cf,
    similarity_matrix,
)
from .critic import CriticConsensus, aggregate_reviews, consensus_map, normalize
from .errors import CinefuseError, DataFormatError, UnknownEntityError
from .evaluate import EvalReport, SplitConfig, evaluate_variants, mae, precision_at_k
from .optimize import (
    FuzzyProfiles,
    GAConfig,
    SwarmConfig,
    WeightVector,
    build_fuzzy_profiles,
    cf_mae_objective,
    fuzzy_mae_objective,
    fuzzy_similarity_matrix,
    ga_optimize,
    load_weights,
    pso_optimize,
    save_weights,
)
from .ranker import (
    HybridModel,
    HybridResult,
    PipelineConfig,
    Recommendation,
    cold_start_item,
    cold_start_user,
    fit_hybrid,
    recommend_hybrid,
)
from .textpipe import (
    PrecomputedProvider,
    PreprocessOptions,
    TfidfProvider,
    TokenStream,
    cosine_similarity,
    fit_tfidf,
    load_precomputed,
    preprocess,
    save_precomputed,
)

__version__ = "0.1.0"
