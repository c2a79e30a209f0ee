"""The gap report kept in grid ids: ``completeness_report`` and the text
report build no Configuration, and ``missing`` is decoded once, on read."""

from hypothesis import given, settings

from covsearch import Configuration, Context, ScoreTable, completeness_report
from covsearch.ingest import CompletenessReport
from covsearch.report import render_completeness
from helpers import cat_space
from test_ingest import (
    counted,
    gap_tables,
    on_fresh_space,
    reference_completeness_report,
    reference_render_completeness,
)


@settings(max_examples=300, deadline=None)
@given(table=gap_tables())
def test_id_backed_report_matches_the_references(table):
    report = completeness_report(table)
    expected = reference_completeness_report(on_fresh_space(table))
    text = render_completeness(report)  # from the ids: missing is not read yet
    assert text == reference_render_completeness(expected)
    assert report == expected
    copied = CompletenessReport(
        missing=tuple(
            (ctx, split, tuple(Configuration(c.items) for c in missing))
            for ctx, split, missing in report.missing
        ),
        single_split=report.single_split,
    )
    assert render_completeness(copied) == text


def mixed_gaps_table():
    """Six cells on a fresh 3 x 4 x 2 space: four share one gap, two have
    gaps of their own that overlap it."""
    space = cat_space([3, 4, 2])
    shared = dict.fromkeys((0, 5, 17), 1.0)
    cells = {(Context(d, 100), split): shared for d in "ab" for split in ("validation", "test")}
    cells[Context("c", 100), "test"] = {0: 1.0}
    cells[Context("d", 100), "test"] = {0: 1.0, 5: 1.0, 6: 1.0}
    return ScoreTable._from_cells(space, cells)


def test_report_and_render_decode_nothing(monkeypatch):
    table = mixed_gaps_table()
    built = counted(monkeypatch, Configuration, "__init__")
    formatted = counted(monkeypatch, Configuration, "__str__")
    report = completeness_report(table)
    text = render_completeness(report)
    assert not table.space._decoded and not built and not formatted
    assert not report.is_complete
    assert text == reference_render_completeness(
        reference_completeness_report(on_fresh_space(table))
    )


def test_missing_decodes_each_id_once_and_shares_objects(monkeypatch):
    table = mixed_gaps_table()
    space = table.space
    report = completeness_report(table)
    built = counted(monkeypatch, Configuration, "__init__")
    missing = report.missing
    ids = {space.config_index(c) for _, _, gap in missing for c in gap}
    assert len(built) == len(ids) == len(space._decoded)
    assert report.missing is missing  # decoded once, then kept
    by_id = {}
    for _, _, gap in missing:
        for config in gap:
            assert by_id.setdefault(space.config_index(config), config) is config
    assert len({id(gap) for _, _, gap in missing[:4]}) == 1
    assert report.is_complete is False and len(built) == len(ids)


def test_distinct_gaps_build_and_format_no_configuration(monkeypatch):
    space = cat_space([3, 4])
    table = ScoreTable._from_cells(space, {
        (Context("a", 100), "test"): {0: 1.0},
        (Context("b", 100), "test"): {1: 1.0},
        (Context("c", 100), "test"): {0: 1.0, 1: 1.0},
    })
    report = completeness_report(table)
    built = counted(monkeypatch, Configuration, "__init__")
    formatted = counted(monkeypatch, Configuration, "__str__")
    text = render_completeness(report)
    assert not built and not formatted and not space._decoded
    assert text == reference_render_completeness(
        reference_completeness_report(on_fresh_space(table))
    )
