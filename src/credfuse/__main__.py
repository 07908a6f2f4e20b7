"""``python -m credfuse``: the command-line interface of :mod:`credfuse.cli`."""

import sys

from .cli import main

sys.exit(main())
