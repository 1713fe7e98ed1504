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
    seal.cli         the `seal` command-line entry point
"""

from .errors import DataFormatError, InputError, NumericError

__version__ = "0.1.0"

__all__ = ["DataFormatError", "InputError", "NumericError", "__version__"]
