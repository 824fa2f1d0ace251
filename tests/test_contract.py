"""The contract corpus: validation, tags and codes pinned as digests.

See tests/corpus.py for what each digest covers and how to rewrite them.
"""

from corpus import corpus, load_contract, signature_digests


def test_corpus_digests_are_pinned():
    pinned = load_contract()["signatures"]
    got = {name: signature_digests(text) for name, text in corpus()}
    assert sorted(got) == sorted(pinned)
    changed = [
        f"{name}.{part}"
        for name, parts in got.items()
        for part, value in parts.items()
        if value != pinned[name][part]
    ]
    assert changed == []
