"""The contract corpus: validation, tags and codes pinned as digests.

See tests/corpus.py for what each digest covers and how to rewrite them.
"""

from corpus import corpus, load_contract, signature_digests
from godelgen.errors import GodelgenError
from godelgen.sigmodel import applies, parse_signature, validate


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


def test_the_fit_rule_agrees_with_the_class_graph():
    # applies at each representative index against the edges of its class
    checked = 0
    for name, text in corpus():
        try:
            v = validate(parse_signature(text))
        except GodelgenError:
            continue
        for decl in v.decls:
            for _cls, reps in v.class_reps(decl.name):
                for index in reps:
                    edges = v.analysis.graph[(decl.name, v.class_of(decl.name, index))]
                    for ctor in decl.ctors:
                        fit = applies(v.pattern(ctor.name), index)
                        assert fit == (ctor.name in edges), (name, ctor.name, index)
                        checked += 1
    assert checked > 1000
