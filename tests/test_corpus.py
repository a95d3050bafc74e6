"""The differential corpus of ``tests/corpus.py``, pinned by one sha256 per
family.  The digests of ``spines``, ``roots`` and ``encodings`` were
computed by the code before the spine product was rewritten, that of
``refinement`` by the code before the state limit was decided once per
state, that of ``terms`` by the code before ``||``/``encap`` roots
were rendered through the spine walk, and that of ``rejections`` by the
code before the SOS rules lifted moves through one interning step, and
that of ``relays`` by the code before each spine communication was
decided with one ``encap`` walk, and that of ``parses`` by the code
before the parser became one loop over an explicit stack; none is edited
to fit the code.  A failing family names its first record that moved and
prints that record as it now reads."""

import pytest

from tests import corpus

DIGESTS = {
    "spines": "20e2a2bc11de06b966c51961b8be512b95a299721203dbddce35cd1a93645891",
    "roots": "0cb497b99c12f5e374c4c49cca72e0751abf5e4ebc43a6a52828cac7e3e6dc4e",
    "encodings": "edaa879eefa8821d5de431fcc2d1809b3e8c7a786e9dd228f8745967438d7d0d",
    "refinement": "18f40021626fcd5ab5fa98a170e8a722487b7146d0501e7acaf89ff7614ac946",
    "terms": "da02385e3b3f64be15c373549fa05d6cfacca58644d64dacf94be4234fb280c6",
    "rejections": "f7f9cbccd6c054f6744697b6fe2d40a99c57ed58cbd158f43ff2dd32eba1724d",
    "relays": "27a96fa6480ee27bf33efd078236d82b67637c9fa09af15bc8bd523738270778",
    "parses": "7232f1b6d36890d915febb95e4ebb1b47eaaac9d8c6b371980e74de250132456",
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


def test_relays_let_results_meet_and_reach_the_limit():
    records = corpus.relay_records()
    two_results, result_and_leaf = records[0::2], records[1::2]  # one record per table per spine
    assert sum('"action": "t"' in r for r in two_results) > 10  # c s -> t
    assert sum('"action": "s"' in r for r in result_and_leaf) > 50  # e a -> s
    assert 50 < sum("\nlimit " in r for r in records) < len(records) // 4


def test_refinement_pairs_take_both_verdicts():
    records = corpus.refinement_records()
    verdicts = [r.split("\n", 1)[0] + r.split("bisimilar ", 1)[1].split(" ", 1)[0] for r in records]
    assert verdicts.count("shuffledTrue") == verdicts.count("minimizedTrue") == len(records) // 3
    assert 0 < verdicts.count("mutatedTrue") < verdicts.count("mutatedFalse")
    assert sum("isomorphic False" in r for r in records if r.startswith("minimized")) > 50


def test_rejections_cover_each_reader_and_load_reordered_transitions():
    records = corpus.rejection_records()
    outcome = {}
    for r in records:
        head = r.split("\n", 1)[0]
        if head.startswith(("load ", "read ")):
            outcome.setdefault(head, set()).add(r.rsplit("\n-> ", 1)[1].split(None, 1)[0])
    for head in ("read transitions shuffled", "read transitions reversed", "read transition repeated"):
        assert outcome[head] == {"ok"}
    assert outcome["load repeated swapped"] == {"ok"}
    assert outcome["load conflict"] == outcome["read action 'encap'"] == {"error"}
    validated = [r for r in records if r.startswith("validate ")]
    flags = {r.split("\n", 1)[0] + r.split("associative ", 1)[1].split("\n", 1)[0] for r in validated}
    assert "validate handshakingTrue handshaking True" in flags
    assert "validate mixedFalse handshaking False" in flags
    assert "validate three_partyFalse handshaking False" in flags


def test_parses_take_every_outcome():
    records = corpus.parse_records()
    tokens, terms = records[:2000], records[2000:]
    for half in (tokens, terms):
        assert 50 < sum("(at position" not in r for r in half) < len(half) // 2
    messages = " ".join(r.split("\n-> ", 1)[1] for r in records)
    for message in ("single '|'", "character '#'", "character 'é'", "end of input", "expected action name"):
        assert message in messages
