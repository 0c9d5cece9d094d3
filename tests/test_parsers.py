"""The three text parsers on mutated valid inputs: a correlation table, a
stats file and a manifest each either parse or raise their own error
(TableError, StatsError, ManifestError), which the CLI maps to its exit
code; no other exception may escape."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicequal.errors import ManifestError, StatsError, TableError
from voicequal.evaluation import read_manifest
from voicequal.quality import DEFAULT_TABLE_RESOURCE, load_table
from voicequal.stats import load_stats, save_stats

from conftest import random_stats

# past the csv module's default field limit, 131,072 characters
LONG_FIELD = 200_000


_TABLE = [line for line in (resources.files("voicequal.data") / DEFAULT_TABLE_RESOURCE)
          .read_text("utf-8").splitlines() if line and not line.startswith("#")]


def _stats_lines(workdir):
    """A valid stats file's lines, with the created line older versions wrote."""
    path = workdir / "valid-stats.txt"
    save_stats(random_stats(np.random.default_rng(2)), path)
    return path.read_text("utf-8").splitlines() + ["created 2024-01-01T00:00:00"]


@st.composite
def _mutated(draw, lines, sep, extra):
    """lines, whose cells sep splits (None: runs of whitespace), after up to
    two lines of extra are inserted anywhere (repeated directives or rows)
    and then up to two cells mutated, at least one mutation in all. A
    cell is dropped from a line; or cut as a column, from a line that opens
    like a line of extra and the lines below it down to the next that opens
    the same way (a table header and its rows, say); or replaced by
    LONG_FIELD repeats of one character."""
    lines, openers = list(lines), {line.split(sep)[0] for line in extra}
    inserts = draw(st.integers(0, 2))
    for _ in range(inserts):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(extra)))
    rows = [line.split(sep) for line in lines]
    for _ in range(draw(st.integers(0 if inserts else 1, 2))):
        kind = draw(st.sampled_from(["drop", "cut", "long"]))
        starts = [i for i, cells in enumerate(rows)
                  if cells and (kind != "cut" or cells[0] in openers)]
        if not starts:
            continue
        i = draw(st.sampled_from(starts))
        cell = draw(st.integers(0, len(rows[i]) - 1))
        if kind == "long":
            rows[i][cell] = draw(st.sampled_from("x9[\"")) * LONG_FIELD
            continue
        end = i + 1 if kind == "drop" else next(
            (j for j in range(i + 1, len(rows)) if rows[j][:1] == rows[i][:1]), len(rows))
        for cells in rows[i:end]:
            if cells:
                del cells[min(cell, len(cells) - 1)]
    return [(sep or " ").join(cells) for cells in rows]


_TABLE_DIRECTIVES = [line for line in _TABLE if line.split()[0] in ("version", "qualities")]
_MANIFEST = ("v0.wav,Jit", "v1.wav,NEUTRAL-VOICE", "v2.wav,Brea")
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with the three (empty) files that _MANIFEST names."""
    base = tmp_path_factory.mktemp("parsers")
    for i in range(3):
        (base / f"v{i}.wav").touch()
    return base


def _parses_or_raises(path, lines, load, error):
    path.write_text("\n".join(lines) + "\n", "utf-8")
    try:
        load(path)
    except error:
        pass


def test_the_unmutated_inputs_parse(workdir):
    for name, lines, load in (("table.txt", _TABLE, load_table),
                              ("m.csv", _MANIFEST, read_manifest),
                              ("stats.txt", _stats_lines(workdir), load_stats)):
        (workdir / name).write_text("\n".join(lines) + "\n", "utf-8")
        load(workdir / name)


@_SETTINGS
@given(lines=_mutated(_TABLE, None, _TABLE_DIRECTIVES))
def test_a_mutated_table_parses_or_raises_table_error(workdir, lines):
    _parses_or_raises(workdir / "table.txt", lines, load_table, TableError)


@_SETTINGS
@given(lines=_mutated(_MANIFEST, ",", _MANIFEST))
def test_a_mutated_manifest_parses_or_raises_manifest_error(workdir, lines):
    _parses_or_raises(workdir / "m.csv", lines, read_manifest, ManifestError)


def test_a_mutated_stats_file_parses_or_raises_stats_error(workdir):
    valid = _stats_lines(workdir)

    @_SETTINGS
    @given(lines=_mutated(valid, None, valid[1:]))
    def parses_or_raises(lines):
        _parses_or_raises(workdir / "stats.txt", lines, load_stats, StatsError)

    parses_or_raises()
