"""``python -m zonereach``: the command line of ``zonereach.cli``."""

import sys

from .cli import main

sys.exit(main())
