"""python -m unilc2: the unilc2 command line (unilc2.cli)."""

import sys

from .cli import main

sys.exit(main())
