"""Feature learning and binary classification: lasso, t-test screening, PCA and stacked
auto-encoders feeding a linear SVM. The API is the submodules, imported by name (featlearn.data,
.harness, .lasso, .linalg, .pca, .sae, .svm, .ttest), and the featlearn command line."""

__version__ = "0.1.0"
