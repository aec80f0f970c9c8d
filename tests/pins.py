"""The ledger of pinned bits.

Every value that a test holds to the bit, a float.hex or a sha256 digest,
lives in pins.json beside this file, under one key.  A test hands what it
computed to check(key, got), which spells each float with float.hex and
asserts that the spelling is the ledger's, as an inline literal would.

    python tests/pins.py    # re-record the ledger after a change meant to move bits

runs the pinned test modules in this process with check recording instead
of asserting, rewrites pins.json, and prints each key that moved: the
largest relative change of its floats, or "digest changed".  It exits 1 and
writes nothing when one key is read with two different values, or when a
key of the ledger goes unread, as it does when a test fails before its check.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "pins.json")
# the modules whose tests call check
MODULES = ("test_distributions.py", "test_expansion.py", "test_hazard.py",
           "test_laplace.py", "test_oracle.py", "test_weights.py")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


LEDGER = _load(PATH)
_reads = None  # while recording: key -> the distinct spellings read


def _spell(got):
    """got with each float as its float.hex and each tuple as a list."""
    if isinstance(got, str):
        return got
    if isinstance(got, float):
        return got.hex()
    if isinstance(got, (list, tuple)):
        return [_spell(v) for v in got]
    raise TypeError(f"a pin holds floats and strings, not {type(got).__name__}")


def check(key: str, got) -> None:
    """Assert that got, spelled, is the ledger's value at key; while
    recording, note it instead."""
    got = _spell(got)
    if _reads is not None:
        seen = _reads.setdefault(key, [])
        if got not in seen:
            seen.append(got)
        return
    if key not in LEDGER:
        raise AssertionError(f"pin {key} is not in the ledger: run python tests/pins.py")
    if got != LEDGER[key]:
        raise AssertionError(f"pin {key} moved: computed {got}, the ledger holds {LEDGER[key]}")


def dumps(ledger: dict) -> str:
    """The ledger's text: one key per line, so that its diff names the keys
    that moved."""
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(ledger.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _leaves(value) -> list:
    return [leaf for v in value for leaf in _leaves(v)] if isinstance(value, list) else [value]


def _drift(old, new) -> str:
    """How a pin moved: the largest relative change of its floats."""
    old, new = _leaves(old), _leaves(new)
    if len(old) != len(new):
        return f"{len(old)} values became {len(new)}"
    if any(len(v) == 64 and "x" not in v for v in old + new):
        return "digest changed"
    pairs = [(float.fromhex(a), float.fromhex(b)) for a, b in zip(old, new) if a != b]
    largest = max((abs(b - a) / abs(a) if a and math.isfinite(a) and math.isfinite(b)
                   else math.inf for a, b in pairs), default=0.0)
    return f"largest relative change {largest:.3g}"


def record(run) -> int:
    """Call run, which reads the pins through check, and rewrite the ledger
    at PATH with what it read, printing each key that moved or is new.
    Returns 1, having written nothing, if a key was read with two different
    values or a key of the ledger went unread; 0 otherwise."""
    global _reads
    _reads = {}
    try:
        run()
        reads = _reads
    finally:
        _reads = None
    old = _load(PATH)
    refusals = [f"{key}: read with {len(seen)} different values"
                for key, seen in sorted(reads.items()) if len(seen) > 1]
    refusals += [f"{key}: in the ledger but never read"
                 for key in sorted(old.keys() - reads.keys())]
    if refusals:
        print("\n".join(refusals) + "\nthe ledger is left as it was")
        return 1
    new = {key: seen[0] for key, seen in reads.items()}
    moved = [key for key in sorted(new) if new[key] != old.get(key)]
    for key in moved:
        print(f"{key}: {_drift(old[key], new[key]) if key in old else 'new'}")
    with open(PATH, "w") as fh:
        fh.write(dumps(new))
    print(f"{len(moved)} of {len(new)} pins moved or new; the ledger is rewritten")
    return 0


if __name__ == "__main__":
    import pytest

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import pins  # the module the tests import, not this __main__ copy

    sys.exit(pins.record(lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", *(os.path.join(HERE, m) for m in MODULES)])))
