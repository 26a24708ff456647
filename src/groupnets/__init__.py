"""Multi-group social network generators and dynamics analytics.

Four inter-group connectivity modalities (bridge, edge bundle,
co-membership, liaison hierarchy) are generated from a shared scaffold
of heavy-tailed dense subgroups; structural, spectral and Markov-chain
metrics quantify how the modality choice shapes information
propagation, consensus convergence and noise resilience.
"""

from .partition import (
    PowerLawSpec,
    SaturationError,
    SizeSequence,
    fixed_sum_realizations,
    power_law_pmf,
    sample_group_sizes,
)
from .graphs import (
    Graph,
    GraphDocument,
    average_clustering,
    average_shortest_path,
    degree_histogram,
    is_connected,
    read_edge_list,
    write_edge_list,
)
from .generators import (
    MODALITIES,
    GenerationError,
    GroupTree,
    ModalityParams,
    MultiGroupGraph,
    bundle_edge_count,
    er_block,
    gen_bridge,
    gen_comembership,
    gen_edge_bundle,
    gen_liaison,
    generate,
    uniform_spanning_tree,
)
from .dynamics import (
    ConditioningError,
    ConsensusSystem,
    ConvergenceError,
    NoiseModel,
    Trajectory,
    build_consensus_matrix,
    consensus_spectrum,
    convergence_time,
    hitting_times,
    propagation_growth_rates,
    simulate_consensus,
    simulate_hitting_time,
    simulate_noisy_consensus,
    spectral_radius,
    steady_state_deviation,
)
from .experiments import (
    MetricsRecord,
    SummaryRow,
    SweepConfig,
    measure,
    read_records_csv,
    run_sweep,
    summarize,
    write_records_csv,
)
from .regression import (
    DesignSpec,
    FitResult,
    build_design,
    fit_ols,
    format_fit_table,
)
from .svgplot import PlotSpec, plot_file, plot_metric, render_line_chart

__version__ = "0.1.0"
