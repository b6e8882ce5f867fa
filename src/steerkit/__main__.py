"""``python -m steerkit``: the command-line interface of :mod:`steerkit.cli`."""

import sys

from .cli import main

sys.exit(main())
