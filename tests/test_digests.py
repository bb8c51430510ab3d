"""Every call of the digest corpus (``digests.py``) replays in-process to
the exit code and output digests recorded in ``tests/data/digests.json``;
off the host that wrote them, to the exit code and the coarse digest."""

import json

import pytest

import digests

CORPUS = json.loads(digests.CORPUS.read_text(encoding="utf-8"))
FIELDS = (("exit", "stdout", "stderr") if CORPUS["host"] == digests.host()
          else ("exit", "coarse"))


@pytest.fixture(scope="module")
def edge(tmp_path_factory):
    return digests.write_edge_files(tmp_path_factory.mktemp("edge"))


def test_corpus_lists_every_call():
    assert [call["argv"] for call in CORPUS["calls"]] == digests.calls()


@pytest.mark.parametrize("call", CORPUS["calls"],
                         ids=[" ".join(c["argv"]) for c in CORPUS["calls"]])
def test_call_replays_to_its_digests(call, edge):
    got = digests.digest(*digests.replay(call["argv"], edge))
    changed = [field for field in FIELDS if got[field] != call[field]]
    assert not changed, (f"{' '.join(call['argv'])}: {', '.join(changed)} "
                         f"changed (regenerate with tests/digests.py)")
