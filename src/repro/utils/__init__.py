"""Small shared utilities: deterministic randomness, tables, retry
backoff, durable JSONL."""

from repro.utils.backoff import BackoffPolicy
from repro.utils.prng import ensure_rng, spawn_rngs
from repro.utils.tables import Table, format_float
from repro.utils.validation import check_finite, check_positive

__all__ = [
    "BackoffPolicy",
    "ensure_rng",
    "spawn_rngs",
    "Table",
    "format_float",
    "check_finite",
    "check_positive",
]
