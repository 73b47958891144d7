"""Minimum-error linear discriminants for heteroscedastic Gaussian
class models, with baselines, a local-search refinement, one-vs-one
multiclass reduction, and a cross-validation benchmark harness."""

from .baselines import (SweepConfig, train_chld, train_lda, train_rhld1,
                        train_rhld2)
from .data import (CSV_HEADER, BenchmarkReport, CvPlan, EvalMetrics,
                   FoldRecord, accuracy_score, d1_population, d2_population,
                   default_workers, generate_d1, generate_d2, kfold_split,
                   load_csv, load_matrix_csv, run_benchmark, save_csv)
from .discriminant import (ClassStats, LabeledDataset, LinearDiscriminant,
                           Priors, ProjectedStats, bayes_error, classify,
                           compute_class_stats, decision_values,
                           gradient_bayes_error, project_stats,
                           training_error_count)
from .errors import (ComplexRoot, DegenerateProjection, DimensionMismatch,
                     EmptyClass, HetldaError, InconsistentWidth,
                     InfeasibleStratification, ParseError, VersionMismatch,
                     ZeroDirection)
from .gld import (GldConfig, GldIterate, GldTrace, second_order_holds,
                  solve_threshold, threshold_roots, train_gld)
from .lns import LnsConfig, local_neighbourhood_search
from .methods import METHOD_NAMES, make_trainer
from .model_io import (FORMAT_VERSION, dataset_hash, load_model, save_model)
from .multiclass import (OvoModel, predict_ovo, predict_ovo_batch, train_ovo)
from .numkit import q_function, solve_symmetric

__version__ = "0.1.0"
