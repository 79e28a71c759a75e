"""`python -m sdalab ...`: the sdalab command line, runnable from a source checkout."""

import sys

from .cli import main

sys.exit(main())
