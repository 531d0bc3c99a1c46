"""Fuzzy decision bases: graded memberships, interval entailment, ranking.

The names below are the ones the README's "Library" section uses; every
other name is imported from its submodule.
"""

from .decision import rank
from .kbtext import parse_concept_text, parse_kb, parse_ubox
from .model import FdlbError
from .reasoner import InconsistencyError, saturate

__version__ = "0.1.0"

__all__ = ["FdlbError", "InconsistencyError", "parse_concept_text", "parse_kb", "parse_ubox", "rank", "saturate"]
