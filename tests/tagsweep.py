"""Print a digest of the tag search's outcome for each signature of a fixed set.

The set is every signature of the contract corpus (tests/corpus.py), then
seeds 10,000-12,999 of random_signature and seeds 10,000-11,499 of
random_indexed_signature, keeping those that validate.  Each line holds a
signature's name and the digest of its tags, or of its NoWellFoundedPlan
list, as the corpus's b digest is made (corpus.planned_tags).  A change to
the tag search is checked by diffing the output of two checkouts:

    PYTHONPATH=src python tests/tagsweep.py > tags.txt

The signature count, the total time spent in assign_tags and the number
of plans it built go to stderr.  Pytest does not collect this file.
"""

import random
import sys
import time

from corpus import corpus, digest, planned_tags, random_indexed_signature, random_signature
from godelgen import codec
from godelgen.errors import GodelgenError
from godelgen.sigmodel import parse_signature, validate


def signatures():
    """(name, text) of every signature in the set, valid or not."""
    yield from corpus()
    for seed in range(10_000, 13_000):
        yield f"random{seed}", random_signature(random.Random(seed))
    for seed in range(10_000, 11_500):
        yield f"indexed{seed}", random_indexed_signature(random.Random(seed))


def main() -> None:
    count, spent, built = 0, 0.0, [0]
    build_plan = codec.build_plan

    def counted(*args):  # assign_tags builds each plan it tries through this name
        built[0] += 1
        return build_plan(*args)

    codec.build_plan = counted
    for name, text in signatures():
        try:
            vsig = validate(parse_signature(text))
        except GodelgenError:
            continue
        start = time.perf_counter()
        lines = planned_tags(vsig)[1]
        spent += time.perf_counter() - start
        count += 1
        print(name, digest(lines))
    print(f"{count} signatures, assign_tags {spent:.2f} s, {built[0]} plans built",
          file=sys.stderr)


if __name__ == "__main__":
    main()
