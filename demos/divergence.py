"""Why the search coarsens zones.

One location, one loop: the guard x=1 fires every time unit and resets
x, while y keeps counting.  Each pass yields a new zone (y-x >= 1,
then >= 2, ...), so a naive search never runs out of work even though
the system has a single location.

    python3 demos/divergence.py
"""

from pathlib import Path

from zonereach import SearchOptions, explore, parse_query, parse_spec

SPEC = Path(__file__).resolve().parent.parent / "specs" / "diverging_loop.ta"

net = parse_spec(SPEC.read_text())
query = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s0.nil/x-y>0 ^ true)", net)
print("question: can x ever be ahead of y?  (it cannot: y is never reset)\n")

# Faithful exploration enumerates y-x >= 1, y-x >= 2, ... forever.
# A zone cap turns that into an honest "gave up".
capped = SearchOptions(subsumption="equal", extrapolate=False, max_zones=10_000)
result = explore(net, query, capped)
print(f"exact zones, cap at 10000:  {result.verdict} ({result.reason}, "
      f"stored={result.stats.stored})")

# The target x-y>0 compares two clocks, so the search widens stored
# zones with Extra_M: it erases bounds beyond each clock's largest
# constant (here k(x)=1, k(y)=0), the growing family collapses to one
# zone and the loop closes after two stored states.  (Without diagonal
# atoms, stored zones stay exact and Extra+_LU only decides pruning.)
result = explore(net, query)
print(f"with extrapolation:         {result.verdict} "
      f"(stored={result.stats.stored}, popped={result.stats.popped})")
print("\nthe coarsening only ever grows zones, so False verdicts stay valid;")
print("a reached target can be re-confirmed with replay_witness or find_concrete_run.")
