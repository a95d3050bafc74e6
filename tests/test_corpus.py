"""The differential corpus of ``tests/corpus.py``, pinned by one sha256 per
family.  The digests of ``spines``, ``roots`` and ``encodings`` were
computed by the code before the spine product was rewritten, and that of
``refinement`` by the code before the state limit was decided once per
state; none is edited to fit the code.  A failing family names its first
record that moved and prints that record as it now reads."""

import pytest

from tests import corpus

DIGESTS = {
    "spines": "20e2a2bc11de06b966c51961b8be512b95a299721203dbddce35cd1a93645891",
    "roots": "0cb497b99c12f5e374c4c49cca72e0751abf5e4ebc43a6a52828cac7e3e6dc4e",
    "encodings": "edaa879eefa8821d5de431fcc2d1809b3e8c7a786e9dd228f8745967438d7d0d",
    "refinement": "18f40021626fcd5ab5fa98a170e8a722487b7146d0501e7acaf89ff7614ac946",
}


@pytest.mark.parametrize("family", list(DIGESTS))
def test_family_matches_its_pinned_digest(family):
    records = corpus.FAMILIES[family]()
    if corpus.digest(records) != DIGESTS[family]:
        pytest.fail(corpus.first_difference(family, records), pytrace=False)


def test_spines_reach_the_limit_and_communicate():
    records = corpus.spine_records()
    limited = [r for r in records if "\nlimit " in r]
    assert 100 < len(limited) < len(records) // 2
    k = len(corpus.GAMMAS)
    by_term = [records[i:i + k] for i in range(0, len(records), k)]
    changed = sum(len({r.split("\n", 1)[1] for r in group}) > 1 for group in by_term)
    assert changed > 100


def test_refinement_pairs_take_both_verdicts():
    records = corpus.refinement_records()
    verdicts = [r.split("\n", 1)[0] + r.split("bisimilar ", 1)[1].split(" ", 1)[0] for r in records]
    assert verdicts.count("shuffledTrue") == verdicts.count("minimizedTrue") == len(records) // 3
    assert 0 < verdicts.count("mutatedTrue") < verdicts.count("mutatedFalse")
    assert sum("isomorphic False" in r for r in records if r.startswith("minimized")) > 50
