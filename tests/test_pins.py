"""The ledger of pinned bits: a check fails on one ulp, and the recorder
refuses to guess."""

import hashlib
import math

import pytest

import lighttails as lt
import pins

ABS_SUM = "weights/geometric0.3/abs_sum"


def test_a_one_ulp_move_fails_its_check_with_the_key(monkeypatch):
    got = lt.WeightSequence([1.0, 0.5], ratio=0.3).abs_sum()
    pins.check(ABS_SUM, got)
    monkeypatch.setitem(pins.LEDGER, ABS_SUM, math.nextafter(got, math.inf).hex())
    with pytest.raises(AssertionError, match=ABS_SUM):
        pins.check(ABS_SUM, got)


@pytest.fixture
def ledger(tmp_path, monkeypatch):
    """A two-key ledger file that record reads and rewrites."""
    path = tmp_path / "pins.json"
    path.write_text(pins.dumps({"a": [1.0.hex(), 2.0.hex()],
                                "b": hashlib.sha256(b"b").hexdigest()}))
    monkeypatch.setattr(pins, "PATH", str(path))
    return path


@pytest.mark.parametrize("reads, refusal", [
    ([("a", [1.0, 2.0]), ("b", "b"), ("a", [1.0, 3.0])], "a: read with 2 different values"),
    ([("a", [1.0, 2.0])], "b: in the ledger but never read"),
], ids=["conflicting_reread", "unread_key"])
def test_the_recorder_refuses_without_writing(ledger, capsys, reads, refusal):
    before = ledger.read_text()
    assert pins.record(lambda: [pins.check(key, got) for key, got in reads]) == 1
    assert ledger.read_text() == before
    assert refusal in capsys.readouterr().out


def test_the_recorder_prints_the_drift_and_rewrites(ledger, capsys):
    def run():
        pins.check("a", [1.0, 2.0 * (1 + 2 ** -40)])
        pins.check("b", hashlib.sha256(b"moved").hexdigest())
        pins.check("c", 5.0)
    assert pins.record(run) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a: largest relative change 9.09e-13", "b: digest changed", "c: new",
        "3 of 3 pins moved or new; the ledger is rewritten"]
    assert ledger.read_text() == pins.dumps({
        "a": [1.0.hex(), (2.0 * (1 + 2 ** -40)).hex()],
        "b": hashlib.sha256(b"moved").hexdigest(), "c": 5.0.hex()})
