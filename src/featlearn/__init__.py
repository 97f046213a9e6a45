"""Feature learning and binary classification toolkit: lasso, two-sample
t-test screening, PCA, and stacked auto-encoders feeding a linear SVM, with
a repeated-split evaluation harness and synthetic data generation."""

from .data import (CsvFormatError, Dataset, SplitIndices, StandardizationParams,
                   SyntheticSpec, generate_synthetic, kfold, load_csv,
                   random_split, save_csv, standardize_fit, stratified_split)
from .harness import (ExperimentConfig, PipelineFit, PipelineSpec,
                      PipelineStageError, ResultsTable, fit_pipeline,
                      parse_config, render_table, run_experiment)
from .lasso import (LassoFit, SingularActiveSetError, lambda_max, lambda_path, lasso_cv,
                    lasso_fit, lasso_path, selected_features)
from .linalg import ConvergenceError, SymEigen, sample_covariance, sym_eigen
from .pca import PcaModel, pca_fit, pca_transform
from .sae import (AeLayer, SaeModel, TrainConfig, TrainingDivergedError,
                  ae_encode, ae_train, fine_tune, sae_features,
                  sae_predict, sae_pretrain, semi_pretrain_finetune, sigmoid)
from .svm import LinearSvmModel, accuracy, svm_cv, svm_predict, svm_train
from .ttest import TStats, select_top_m, ttest_cv, two_sample_t

__version__ = "0.1.0"
