import sys
from pathlib import Path

import pytest

from zonereach import parse_spec

REPO = Path(__file__).resolve().parents[1]
SPECS = REPO / "specs"

TRAIN_PATH = SPECS / "train_gate_controller.ta"
DIVERGING_PATH = SPECS / "diverging_loop.ta"
QUERIES_PATH = SPECS / "train_queries.txt"
LITERAL_PATH = Path(__file__).parent / "data" / "train_literal.ta"

# The benchmark's input generators (``gen.fischer_spec`` and friends)
# are importable as ``gen``; appended, so they shadow nothing.
sys.path.append(str(REPO / "bench"))


@pytest.fixture(scope="session")
def train_net():
    return parse_spec(TRAIN_PATH.read_text())


@pytest.fixture(scope="session")
def literal_net():
    return parse_spec(LITERAL_PATH.read_text())


@pytest.fixture(scope="session")
def diverging_net():
    return parse_spec(DIVERGING_PATH.read_text())
