"""Run the command line as `python -m behavrules ...`."""

from .cli import main

raise SystemExit(main())
