"""claslab: two-class classification with exactly known synthetic oracles.

Classifiers (LDA, Parzen, logistic/ridge/hinge ERM, kernel ridge, kNN,
decision trees, bagging, random subspaces, AdaBoost, one-hidden-layer
nets), margin losses with gradients, dissimilarity representations,
error estimators (apparent, holdout, k-fold, leave-one-out, bootstrap
bias correction, .632), learning and feature curves, and a Gaussian
mixture oracle supplying samples, optimal decisions and the minimum
achievable error -- so every estimate can be checked against the truth.
"""

from .base import DecisionFunction, sign_labels
from .data import (
    BootstrapSample,
    FoldAssignment,
    LabeledDataset,
    bootstrap_sample,
    child_seed,
    load_csv,
    make_folds,
    save_csv,
    split_holdout,
)
from .ensembles import (
    BoostModel,
    Ensemble,
    TreeConfig,
    adaboost,
    bagging,
    combine,
    random_subspace,
)
from .evaluation import (
    Curve,
    ErrorEstimate,
    apparent_error,
    bootstrap_corrected,
    e632,
    error_std,
    feature_curve,
    holdout_error,
    kfold_cv,
    learning_curve,
    loo_cv,
)
from .features import (
    AppendNoise,
    FeatureTransform,
    PipelineClassifier,
    Poly2Expand,
    Select,
    Standardize,
    append_noise,
    forward_select,
)
from .generative import (
    LdaModel,
    ParzenModel,
    fit_lda,
    fit_parzen,
)
from .kernels import (
    DissimilarityMap,
    Kernel,
    KernelMachine,
    dissim_embed,
    gram_matrix,
    kernel_eval,
    select_prototypes,
    train_kernel_machine,
)
from .linear import (
    LinearHypothesis,
    TrainConfig,
    train_least_squares,
    train_linear,
    train_logistic,
)
from .losses import Loss, get_loss
from .neighbors import KnnClassifier, fit_knn
from .neural import NetTrainConfig, OneHiddenLayerNet, net_gradient, train_net
from .oracle import (
    BayesClassifier,
    GaussianMixtureProblem,
    bayes_error,
    equal_cov_problem,
    load_problem,
    sample,
    true_error,
)
from .serialize import load_model, model_from_dict, model_to_dict, save_model
from .trees import DecisionTree, fit_tree, tree_trace

__version__ = "0.1.0"
