"""Explainable credit scoring: windowed transaction KPIs, imbalance-aware
training of boosted trees (and friends), ROC/Gini evaluation, and exact
Shapley-value explanations."""

__version__ = "0.1.0"

from .explain import (
    CoalitionEvaluator,
    ShapValues,
    brute_force_shapley,
    global_importance,
    tree_shap,
)
from .features import FeatureMatrix, ScalerParams, build_feature_matrix
from .metrics import CvResult, RocCurve, TrainSplit, cross_validate, gini, roc_auc, train_test_split
from .models import ModelSpec, TreeEnsemble, classify, fit_model
from .pipeline import GridSpec, PipelineConfig, run_grid, run_pipeline
from .resampling import ClassWeights, ResamplingStrategy, apply_strategy, class_weights
from .tables import LedgerBundle, join_bundle, load_table, validate_bundle
