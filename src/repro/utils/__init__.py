"""Shared utilities: dB arithmetic, empirical statistics, text rendering.

These helpers are deliberately dependency-light so every other subpackage
(PHY, MAC, experiments) can use them without import cycles.
"""

from repro.utils.dbmath import (
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
)
from repro.utils.stats import (
    Cdf,
    jain_fairness,
    percentile,
)
from repro.utils.render import ascii_plot, format_table

__all__ = [
    "Cdf",
    "ascii_plot",
    "db_to_linear",
    "dbm_to_watt",
    "format_table",
    "jain_fairness",
    "linear_to_db",
    "percentile",
]
