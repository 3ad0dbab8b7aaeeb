"""Binary phase-code discovery for pulse compression radar with a
mismatched-filter receiver: SCR fitness oracle, genetic search, Monte-Carlo
echo validation, and reference baselines.
"""

from .codes import (
    ParseError,
    PhaseCode,
    as_code,
    autocorrelation,
    format_code,
    legendre_code,
    pack_codes,
    parse_code,
    shifted,
    unpack_codes,
)
from .fitness import (
    build_clutter_matrix,
    fitness,
    fitness_batch,
    matched_filter_scr,
    optimal_filter,
    scr,
)
from .ga import (
    GaConfig,
    GenerationStats,
    Population,
    RunResult,
    ScoreCache,
    crossover,
    elite_select,
    evaluate,
    init_population,
    mutate,
    pad_population,
    prevent_early_convergence,
    random_search,
    run,
    step_generation,
    tournament_select,
)
from .echo import empirical_sir
from .baselines import KnownCode, brute_force_best, known_code, known_codes

__version__ = "0.1.0"
