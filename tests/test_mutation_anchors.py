"""The mutation check's anchors, checked in tier-1: every named mutant's
and every tie-only mutant's old text occurs exactly once in its module,
so a refactor that leaves one pointing at nothing fails here, not only in
the full `python tests/mutation.py` run. This reads files only; it runs
no mutant.
"""

import mutation


def test_every_anchor_occurs_once():
    mutation._check_anchors(mutation.ROOT)
