"""Cost-sensitive spam filtering lab.

Naive Bayes and memory-based (k-distance neighborhood) classifiers over
binary word-presence vectors selected by mutual information, evaluated
with weighted accuracy, total cost ratio and stratified 10-fold
cross-validation.
"""

from .bayes import (
    DecisionPolicy,
    NaiveBayesModel,
    classify_nb_batch,
    lambda_to_threshold,
    posterior_spam_batch,
    train_naive_bayes,
)
from .corpus import (
    Corpus,
    CorpusStats,
    Document,
    FixtureParams,
    Label,
    NormalizerConfig,
    corpus_stats,
    generate_fixture_corpus,
    load_corpus,
    normalize_token,
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
    mutual_information_batch,
    select_attributes,
    token_class_counts,
    vectorize_documents,
)
from .memory import (
    InstanceBase,
    build_instance_base,
    classify_mb_batch,
    neighborhood_votes,
)

__version__ = "0.1.0"
