"""A railroad crossing, checked end to end.

Three automata share a track: a train (clock X), a gate (clock Y), and
a controller (clock Z) that relays signals between them.  The safety
question is whether the train can be in the crossing while the gate is
still up.  Run me from the repository root:

    python3 demos/crossing.py
"""

from fractions import Fraction
from pathlib import Path

from zonereach import Verdict, explore, find_concrete_run, parse_query, parse_spec

SPEC = Path(__file__).resolve().parent.parent / "specs" / "train_gate_controller.ta"

net = parse_spec(SPEC.read_text())
print(f"network {net.name!r}: {len(net.automata)} automata, "
      f"clocks {', '.join(c.name for c in net.clocks)}, "
      f"{len(net.locations)} locations, {len(net.labels)} labels")
print()

# The gate does come down before the train arrives...
inside = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", net)
result = explore(net, inside)
print("train in the crossing, gate down: ", result.verdict)
schedule = " -> ".join(label.name for label in result.witness)
print("  one way to get there:", schedule)

# ...and the dangerous configuration is unreachable.
unsafe = parse_query("go(Far.Up.u0.nil/true, In.Up.u0.nil/true)", net)
result = explore(net, unsafe)
print("train in the crossing, gate up:   ", result.verdict)
print()

# The symbolic witness is backed by a concrete timed run: a grid search
# over delays finds actual clock values realizing each step.
steps = find_concrete_run(net, inside, explore(net, inside).witness,
                          horizon=Fraction(12), granularity=Fraction(1, 2))
print("a concrete run realizing the witness:")
clocks = ", ".join(c.name for c in net.clocks)
print(f"  {'time':>6}  {'fire':<6} {'now at':<18} [{clocks}]")
for step in steps:
    where = ".".join(loc.name for loc in step.locations)
    values = ", ".join(str(v) for v in step.valuation)
    print(f"  {str(step.time):>6}  {step.label.name:<6} {where:<18} [{values}]")
