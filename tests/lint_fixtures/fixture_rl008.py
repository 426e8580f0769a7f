# repro-lint-fixture: treat-as-src
"""Seeded RL008 violations: pickle deserialization in src/repro."""

import io
import pickle


def bad_loads(blob: bytes):
    return pickle.loads(blob)  # seed:RL008


def bad_load(stream):
    return pickle.load(stream)  # seed:RL008


def bad_unpickler(blob: bytes):
    return pickle.Unpickler(io.BytesIO(blob)).load()  # seed:RL008


def good_dumps(obj) -> bytes:
    # serialization is fine; only deserialization is banned
    return pickle.dumps(obj)
