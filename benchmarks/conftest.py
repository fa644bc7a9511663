"""Benchmark-suite configuration."""

import sys
from pathlib import Path

# Make `import common` work regardless of invocation directory, and
# `tests.reference` (the full-recompute and settrace references the
# speedup gates compare against) importable from the repo root.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.append(str(Path(__file__).resolve().parent.parent))
