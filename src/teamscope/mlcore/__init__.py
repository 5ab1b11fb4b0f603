"""From-scratch statistical machinery shared by the classification stages."""

from .evaluation import (
    EvalReport,
    choice_bounds,
    cohens_kappa,
    mean_report,
    prf1,
    seed_sequence,
    sorted_choices,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
)
from .forest import (
    ForestModel,
    feature_importances,
    forest_votes,
    train_forest,
)
from .logreg import (
    LogisticModel,
    logistic_loss_and_grad,
    predict,
    predict_proba,
    sigmoid,
    train_logreg,
)
from .rfe import rfe_select
from .serialize import canonical_json, dumps_model, load_model, save_model
from .tfidf import NgramIndex, TfidfModel, fit_tfidf, index_ngrams, iter_ngrams, tfidf_transform
