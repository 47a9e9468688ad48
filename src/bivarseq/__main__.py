"""``python -m bivarseq``: the command line of :mod:`bivarseq.cli_monitor`."""

import sys

from .cli_monitor import main

if __name__ == "__main__":
    sys.exit(main())
