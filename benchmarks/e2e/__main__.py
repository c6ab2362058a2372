"""``python -m benchmarks.e2e`` is the same command line as ``run.py``."""

from benchmarks.e2e.run import main

raise SystemExit(main())
