"""Machine output: ``cli._dumps`` writes the bytes of ``json.dumps(document,
indent=2)``, and every machine-format command writes those bytes of the
document an unshared encoder builds, although ``model._data`` shares one
document per record object within a call."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from covsearch import cli
from covsearch.ingest import serialize_scores, serialize_space
from covsearch.model import Configuration, Context, _Record, _data, _to_dict
from covsearch.protocols import loo_cbs
from covsearch.synth import synthetic_table

TEXTS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["", "é", "日本", "😀", "\ud800", '"', "\\", "[", "]", "{", "}", ", ", ": ",
         '", "', "\n", "\r\t", "\x00", "\x1f", "\x7f", " ", "a,\n  b"]
    ),
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
         0.1 + 0.2, 1 / 3, 1.7976931348623157e308, 123456789.12345679]
    ),
)
SCALARS = st.one_of(
    TEXTS, FLOATS, st.integers(), st.integers(-(2**200), 2**200), st.booleans(), st.none()
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(TEXTS, children, max_size=5),
    max_leaves=30,
)


@st.composite
def shared_documents(draw):
    """A document holding one container object several times: twice at one
    depth and once each at three other depths."""
    part = draw(DOCUMENTS.filter(lambda doc: isinstance(doc, (dict, list))))
    head = draw(DOCUMENTS)
    return {"a": part, "b": [part, {"c": part}], "d": [part, head, part], "e": [[[part]]]}


def indent2(document) -> str:
    return json.dumps(document, indent=2)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(document=DOCUMENTS)
    def test_random_documents_give_the_indented_bytes(self, document):
        assert cli._dumps(document) == indent2(document)

    @settings(max_examples=100, deadline=None)
    @given(document=shared_documents())
    def test_a_shared_container_gives_the_indented_bytes(self, document):
        assert cli._dumps(document) == indent2(document)

    @settings(max_examples=100, deadline=None)
    @given(document=DOCUMENTS | shared_documents())
    def test_json_without_its_c_encoder_gives_the_same_bytes(self, document):
        with mock.patch.object(cli, "c_make_encoder", None):
            assert cli._dumps(document) == indent2(document)

    def test_empty_containers_and_tuples(self):
        for document in ({}, [], (), [{}, [], ()], {"a": {}, "b": [[], {}]}, ("x", (1, 2.5))):
            assert cli._dumps(document) == indent2(document)


def unshared(value):
    """``model._data`` without sharing: a new document at every occurrence."""
    if isinstance(value, Context):
        return str(value)
    if isinstance(value, Configuration):
        return value.as_dict()
    if isinstance(value, _Record):
        if type(value).to_dict is _to_dict:
            return {key: unshared(getattr(value, name)) for key, name in value._json_fields}
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [unshared(item) for item in value]
    return value


class TestSharedDocuments:
    def test_a_recurring_record_is_one_document(self):
        table = synthetic_table(datasets=5, seed=3)
        results = loo_cbs(table)
        fields = {id(e): dict(vars(e)) for r in results for e in r.ranking.entries}
        docs = _data(results)
        assert docs == unshared(results)
        by_record = {}
        for result, doc in zip(results, docs):
            for entry, entry_doc in zip(result.ranking.entries, doc["ranking"]["entries"]):
                assert by_record.setdefault(id(entry), entry_doc) is entry_doc
        assert len(by_record) < sum(len(r.ranking.entries) for r in results)
        # nothing is left on the records
        assert fields == {id(e): dict(vars(e)) for r in results for e in r.ranking.entries}

    def test_separate_calls_share_nothing(self):
        results = loo_cbs(synthetic_table(datasets=3, seed=1))
        first, second = _data(results), _data(results)
        assert first == second
        assert first[0]["ranking"]["entries"][0] is not second[0]["ranking"]["entries"][0]


# Each machine-format command as (argv after the input files, key of its result).
COMMANDS = (
    (["rank"], "ranking"),
    (["rank", "--top", "2"], "ranking"),
    (["loo"], "results"),
    (["budget", "--details", "--max-budget", "3"], "curve"),
    (["compare", "--task-map", "{tasks}"], "rows"),
    (["importance", "--permutations", "5"], "reports"),
)


class TestMachineOutput:
    @settings(max_examples=12, deadline=None)
    @given(
        datasets=st.integers(2, 5),
        sizes=st.sampled_from([(100,), (100, 1000), (50, 200, 800)]),
        seed=st.integers(0, 2**32 - 1),
        correlation=st.sampled_from([0.0, 0.5, 1.0]),
        threshold=st.sampled_from(["0.5", "0.9"]),
    )
    def test_every_command_writes_the_indented_bytes_of_its_documents(
        self, datasets, sizes, seed, correlation, threshold
    ):
        table = synthetic_table(
            datasets=datasets, train_sizes=sizes, correlation=correlation, seed=seed
        )
        written = []
        write = cli._write

        def recording_write(args, result, render, key=None):
            written.append((args, result, key))
            return write(args, result, render, key)

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "space.json").write_text(serialize_space(table.space), encoding="utf-8")
            (tmp / "scores.csv").write_text(serialize_scores(table), encoding="utf-8")
            names = sorted({c.dataset for c in table.contexts()})
            tasks = {name: f"t{i % 2}" for i, name in enumerate(names)}
            (tmp / "tasks.json").write_text(json.dumps(tasks), encoding="utf-8")
            files = ["--space", str(tmp / "space.json"), "--scores", str(tmp / "scores.csv")]
            for argv, key in COMMANDS:
                argv = [arg.format(tasks=tmp / "tasks.json") for arg in argv]
                out = tmp / "out.json"
                with mock.patch.object(cli, "_write", recording_write):
                    code = cli.main(
                        [*argv, *files, "--threshold", threshold, "--format", "machine",
                         "--out", str(out)]
                    )
                assert code == 0, argv
                args, result, written_key = written.pop()
                assert written_key == key
                document = {"manifest": cli._manifest(args), key: unshared(result)}
                assert out.read_text(encoding="utf-8") == indent2(document) + "\n", argv
