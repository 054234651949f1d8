"""Zone-based reachability checking for networks of timed automata.

Parse a network with :func:`parse_spec`, a ``go(...)`` query with
:func:`parse_query`, and decide it with :func:`explore`.  Zones are
represented either as difference-bound matrices (:class:`Dbm`) or as
conjunctions of difference constraints (:class:`Formula`); both offer
the same zone operations, so the search calls them directly, and
``SearchOptions(backend=...)`` picks one.
"""

from .dbm import Dbm
from .explorer import (
    ExploreResult,
    SearchOptions,
    SearchStats,
    Verdict,
    explore,
    replay_witness,
)
from .formula import Formula
from .model import (
    Atom,
    Automaton,
    ClockConstraint,
    ClockId,
    LabelId,
    LocationId,
    Network,
    Query,
    StatePattern,
    Transition,
    ValidationError,
    max_constants,
    validate,
)
from .parser import Diagnostic, ParseError, parse_query, parse_spec, pretty_print
from .simulate import find_concrete_run, sim_reach_oracle

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Automaton",
    "ClockConstraint",
    "ClockId",
    "Dbm",
    "Diagnostic",
    "ExploreResult",
    "Formula",
    "LabelId",
    "LocationId",
    "Network",
    "ParseError",
    "Query",
    "SearchOptions",
    "SearchStats",
    "StatePattern",
    "Transition",
    "ValidationError",
    "Verdict",
    "explore",
    "find_concrete_run",
    "max_constants",
    "parse_query",
    "parse_spec",
    "pretty_print",
    "replay_witness",
    "sim_reach_oracle",
    "validate",
    "__version__",
]
