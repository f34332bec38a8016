"""``python -m leakbound ...`` runs the ``leakbound`` command."""

import sys

from .cli import main

sys.exit(main())
