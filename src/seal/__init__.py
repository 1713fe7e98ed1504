"""Semantic-aware hierarchical learning for generalized category discovery.

Library layout (import submodules explicitly; the package root stays
import-light so the CLI can pin BLAS threading before numpy loads):

    seal.hierarchy   taxonomies and dynamic transition matrices
    seal.datagen     synthetic tree-mixture data, CSV I/O, GCD splits
    seal.model       sliced-projection MLP encoder with manual backprop
    seal.losses      classification, consistency, and soft-contrastive losses
    seal.trainer     the summed training objective, the loop, run records
    seal.evaluation  Hungarian-matched clustering accuracy and diagnostics
    seal.theory      exact information-theoretic checks on discrete joints
    seal.benchmark   the frozen benchmark dataset and its comparison arms
    seal.errors      the exception types, the JSON reader and its type rule
    seal.cli         the `seal` command-line entry point
"""

from .errors import DataFormatError, InputError, NumericError

__version__ = "0.1.0"

# the thread-count variables of the BLAS builds numpy may load, read when numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

__all__ = ["BLAS_THREAD_VARS", "DataFormatError", "InputError", "NumericError", "__version__"]
