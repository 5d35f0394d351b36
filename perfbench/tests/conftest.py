"""Make ``repro`` importable from this checkout's ``src``."""

from perfbench.common import use_source_tree

use_source_tree()
