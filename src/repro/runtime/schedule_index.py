"""A no-op ``SCHEDULE_CLASS_REGISTRY``, kept for one external reader."""

from types import SimpleNamespace

#: ``clear()`` does nothing; ``e2e_bench/workloads.py`` is its only reader.
SCHEDULE_CLASS_REGISTRY = SimpleNamespace(clear=lambda: None)
