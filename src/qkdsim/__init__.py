"""Seedable Monte Carlo simulation of B92/BB84 quantum key distribution
with pluggable eavesdropper strategies and loss-based attack detection.

The package exports the experiment entry points; lower-level pieces
(states, POVMs, discrimination schemes, the session engine, sifting, the
two tests) are imported from their modules, e.g. `qkdsim.usd`.
"""

from .harness import ExperimentConfig, run_experiment

__version__ = "0.1.0"
