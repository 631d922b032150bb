"""walklab: exact walk-count analytics and walk-aware graph networks.

The library half measures structure exactly: adjacency powers, closed
walks, triangle and 4-cycle counts, walk-bounded aggregation regions,
colour refinement with canonical fingerprints, and exact canonical forms
for small graphs. The lab half trains small graph networks whose layers
mix those structural signals through learnable gates, with a
cross-validated experiment harness and CLI on top.
"""

from .data import (Dataset, DatasetMeta, FoldPlan, baseline_mean, gen_dataset,
                   kfold_split, load_dataset, save_dataset)
from .errors import (CapacityError, ConfigError, CountOverflowError,
                     InputError, InvariantViolation, NumericError,
                     TrainingError)
from .experiments import (ExperimentConfig, ExperimentReport, demo_wl_gap,
                          parse_config, read_config, region_report,
                          run_experiment, write_report)
from .graphs import (Graph, RegionSpec, RootedSubgraph, bfs_distances,
                     complete_graph, cycle_graph, degrees, disjoint_union,
                     erdos_renyi, extract_region, from_edge_list, path_graph,
                     read_edge_list, relabel, write_edge_list)
from .models import (AggregationTerm, GraphOperators, LayerSpec, Model,
                     ModelSpec, build_model, diag_power, forward, gcn_d2_spec,
                     gcn_l1_spec, gcn_spec, load_checkpoint, power,
                     save_checkpoint, self_loop_adjacency,
                     spec_from_model_name)
from .training import (AdamState, FitResult, TrainConfig, TrainItem,
                       adam_step, evaluate, fit, gradient_check, mse_loss,
                       prepare_items)
from .walks import (adjacency_counts, count_simple_cycles_brute,
                    diag_closed_walks, four_cycle_count, mat_power,
                    triangle_counts_per_node, triangle_total)
from .wl import (Coloring, Fingerprint, Verdict, augmented_distinguish,
                 canonical_form, cantor_pair, is_isomorphic_small,
                 lex_min_adjacency, wl_distinguish, wl_fingerprint, wl_refine)

__version__ = "0.1.0"
