"""netepi: random networks with tunable clustering and degree correlation,
exact epidemic analytics on them, and Monte Carlo SIR validation."""

from . import branching, distributions, errors, household, netgen, netprops, simulate
from .branching import AnalyticReport, ModelParams, TuneResult, analyze, tune_poisson
from .distributions import DiscreteDist, InfectionSpec, parse_distribution
from .household import HouseholdEngine
from .netgen import GenSpec, Network, build_network, read_network, rewire, write_network
from .simulate import EstimateReport, classify, estimate, run_epidemic

__all__ = [
    "AnalyticReport",
    "DiscreteDist",
    "EstimateReport",
    "GenSpec",
    "HouseholdEngine",
    "InfectionSpec",
    "ModelParams",
    "Network",
    "TuneResult",
    "analyze",
    "branching",
    "build_network",
    "classify",
    "distributions",
    "errors",
    "estimate",
    "household",
    "netgen",
    "netprops",
    "parse_distribution",
    "read_network",
    "rewire",
    "run_epidemic",
    "simulate",
    "tune_poisson",
    "write_network",
]
