"""Benchmark-suite configuration."""

import sys
import pathlib

# Make the sibling _report helper importable regardless of rootdir.
sys.path.insert(0, str(pathlib.Path(__file__).parent))
