"""The knob registry: every ``REPRO_*`` variable through one reader.

Each table below has a row for every registry entry (checked by
``test_every_knob_has_rows``), so a new knob cannot land untested.  What
a knob *does* — cache eviction, budget refusal, tile numerics, spawn,
faults firing — stays tested next to the code it tunes.
"""

import io
import multiprocessing as mp
import os
import pathlib
import re

import pytest

from repro.cli import main
from repro.config import KNOBS, knob, unknown_names
from repro.core.errors import InvalidProblem
from repro.core.faults import Fault

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

DEFAULTS = {
    "REPRO_WORKERS": max(1, min(os.cpu_count() or 1, 8)),
    "REPRO_START_METHOD": "fork" if "fork" in mp.get_all_start_methods() else "spawn",
    "REPRO_KERNEL_TILE": 16384,
    "REPRO_WEIGHTS_CACHE_BYTES": 64 * 2**20,
    "REPRO_RAM_BUDGET_BYTES": None,
    "REPRO_BVM_BACKEND": "bool",
    "REPRO_FAULT_SPEC": (),
    "REPRO_STORE_CRASH": None,
}

# (name, text, parsed value): the boundary of each range, then overrides.
ACCEPTED = [
    ("REPRO_WORKERS", "1", 1),
    ("REPRO_WORKERS", "3", 3),
    ("REPRO_START_METHOD", "spawn", "spawn"),
    ("REPRO_KERNEL_TILE", "0", 0),
    ("REPRO_KERNEL_TILE", "1024", 1024),
    ("REPRO_WEIGHTS_CACHE_BYTES", "0", 0),
    ("REPRO_RAM_BUDGET_BYTES", "1", 1),
    ("REPRO_BVM_BACKEND", "packed", "packed"),
    ("REPRO_FAULT_SPEC", "kill:layer=2:shard=0", (Fault("kill", layer=2, shard=0),)),
    ("REPRO_STORE_CRASH", "mid-write:layer=1", ("mid-write", 1)),
]

# (name, text): not an integer, below the minimum, not a choice, bad grammar.
BAD = [
    ("REPRO_WORKERS", "lots"),
    ("REPRO_WORKERS", "-2"),
    ("REPRO_WORKERS", "0"),
    ("REPRO_START_METHOD", "teleport"),
    ("REPRO_KERNEL_TILE", "abc"),
    ("REPRO_KERNEL_TILE", "1.5"),
    ("REPRO_KERNEL_TILE", "-1"),
    ("REPRO_WEIGHTS_CACHE_BYTES", "not-a-number"),
    ("REPRO_WEIGHTS_CACHE_BYTES", "-1"),
    ("REPRO_RAM_BUDGET_BYTES", "lots"),
    ("REPRO_RAM_BUDGET_BYTES", "-1"),
    ("REPRO_RAM_BUDGET_BYTES", "0"),
    ("REPRO_BVM_BACKEND", "packd"),
    ("REPRO_FAULT_SPEC", "explode:layer=1"),
    ("REPRO_FAULT_SPEC", "kill:layer=x"),
    ("REPRO_STORE_CRASH", "post-fsync:layer=1"),
    ("REPRO_STORE_CRASH", "mid-write:layer=x"),
]


def _ids(rows):
    return [f"{row[0]}={row[1]}" for row in rows]


def test_every_knob_has_rows():
    assert set(DEFAULTS) == set(KNOBS)
    assert {row[0] for row in ACCEPTED} == set(KNOBS)
    assert {row[0] for row in BAD} == set(KNOBS)


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_unset_and_blank_give_the_default(name, monkeypatch):
    monkeypatch.delenv(name, raising=False)
    assert knob(name) == DEFAULTS[name]
    monkeypatch.setenv(name, "  ")
    assert knob(name) == DEFAULTS[name]


@pytest.mark.parametrize("name,text,value", ACCEPTED, ids=_ids(ACCEPTED))
def test_accepted_value(name, text, value, monkeypatch):
    monkeypatch.setenv(name, f" {text} ")
    assert knob(name) == value


@pytest.mark.parametrize("name,text", BAD, ids=_ids(BAD))
def test_bad_value_raises(name, text, monkeypatch):
    monkeypatch.setenv(name, text)
    with pytest.raises(InvalidProblem) as excinfo:
        knob(name)
    message = str(excinfo.value)
    assert name in message and repr(text) in message
    assert KNOBS[name].accepted in message
    assert "\n" not in message


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_explicit_beats_a_bad_environment(name, monkeypatch):
    value = next(row[2] for row in ACCEPTED if row[0] == name)
    monkeypatch.setenv(name, next(row[1] for row in BAD if row[0] == name))
    assert knob(name, value) == value


def test_reads_the_environment_at_every_call(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TILE", "7")
    assert knob("REPRO_KERNEL_TILE") == 7
    monkeypatch.setenv("REPRO_KERNEL_TILE", "9")
    assert knob("REPRO_KERNEL_TILE") == 9


def test_unknown_names_skip_knobs_and_harness_namespaces(monkeypatch):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_BENCH_K", "10")
    monkeypatch.setenv("REPRO_TEST_TIMEOUT", "5")
    assert unknown_names() == []
    monkeypatch.setenv("REPRO_WORKER", "3")
    monkeypatch.setenv("REPRO_COMMIT_MODE", "sync")
    assert unknown_names() == ["REPRO_COMMIT_MODE", "REPRO_WORKER"]


def test_readme_table_lists_the_registry():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Environment knobs", 1)[1].split("\n#", 1)[0]
    names = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, flags=re.M)
    assert sorted(names) == sorted(KNOBS)


class TestCli:
    SOLVE = ["solve", "--workload", "medical", "--k", "4"]

    def test_unknown_name_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_COMMIT_MODE", "sync")
        assert main(self.SOLVE, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "REPRO_COMMIT_MODE" in err and "REPRO_WORKERS" in err

    def test_harness_names_are_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_X", "1")
        monkeypatch.setenv("REPRO_TEST_X", "1")
        assert main(self.SOLVE, out=io.StringIO()) == 0

    def test_bad_knob_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_KERNEL_TILE", "abc")
        assert main(self.SOLVE, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert "REPRO_KERNEL_TILE" in err and err.count("\n") == 1
