"""Cost-sensitive spam filtering lab.

Naive Bayes and memory-based (k-distance neighborhood) classifiers over
binary word-presence vectors selected by mutual information, evaluated
with weighted accuracy, total cost ratio and stratified 10-fold
cross-validation.
"""

from .bayes import (
    DecisionPolicy,
    NaiveBayesModel,
    classify_nb,
    lambda_to_threshold,
    posterior_spam,
    train_naive_bayes,
)
from .corpus import (
    Corpus,
    CorpusStats,
    Document,
    FixtureParams,
    Label,
    NormalizerConfig,
    RawMessage,
    corpus_stats,
    generate_fixture_corpus,
    load_corpus,
    normalize_token,
    parse_message,
    tokenize,
)
from .errors import ConfigError, CorpusError, DataError, SpamlabError
from .evaluate import (
    AggregateResult,
    ClassifierConfig,
    ConfusionCounts,
    FoldPlan,
    TestResult,
    baseline_metrics,
    confusion_counts,
    cross_validate,
    make_stratified_folds,
    paired_t_test,
    spam_recall_precision,
    sweep_attributes,
    total_cost_ratio,
    weighted_accuracy,
)
from .features import (
    AttributeSet,
    TokenStats,
    mutual_information,
    select_attributes,
    token_class_counts,
    vectorize,
    vectorize_documents,
)
from .memory import (
    InstanceBase,
    Neighborhood,
    build_instance_base,
    classify_mb,
    k_distance_neighborhood,
    overlap_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "AttributeSet",
    "ClassifierConfig",
    "ConfigError",
    "ConfusionCounts",
    "Corpus",
    "CorpusError",
    "CorpusStats",
    "DataError",
    "DecisionPolicy",
    "Document",
    "FixtureParams",
    "FoldPlan",
    "InstanceBase",
    "Label",
    "NaiveBayesModel",
    "Neighborhood",
    "NormalizerConfig",
    "RawMessage",
    "SpamlabError",
    "TestResult",
    "TokenStats",
    "baseline_metrics",
    "build_instance_base",
    "classify_mb",
    "classify_nb",
    "confusion_counts",
    "corpus_stats",
    "cross_validate",
    "generate_fixture_corpus",
    "k_distance_neighborhood",
    "lambda_to_threshold",
    "load_corpus",
    "make_stratified_folds",
    "mutual_information",
    "normalize_token",
    "overlap_distance",
    "paired_t_test",
    "parse_message",
    "posterior_spam",
    "select_attributes",
    "spam_recall_precision",
    "sweep_attributes",
    "token_class_counts",
    "tokenize",
    "total_cost_ratio",
    "train_naive_bayes",
    "vectorize",
    "vectorize_documents",
    "weighted_accuracy",
]
