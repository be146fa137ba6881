"""A change to the rendered checker or lint text must bump CHECKER_VERSION.

The result cache replays stored diagnostic text for as long as the index
header's CHECKER_VERSION matches, so a build that renders different text
under the same version serves stale lines from an old cache.  This test
pins a digest of the rendered ``check_text`` and ``lint_text`` output over
``examples/**/*.tlp`` and a few syntax errors to the current version:
changing the text fails it until the version is bumped and the new
digest recorded here.
"""

import hashlib
from pathlib import Path

from repro.analysis import lint_text
from repro.checker.frontend import check_text
from repro.service.cache import CHECKER_VERSION

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

SYNTAX_ERRORS = [
    "FUNC a.\np(a) :- .\n",
    "FUNC a.\np(a) :- ?.\n",
    "FUNC nil, cons.\np(cons(nil, nil)",
    "% a comment. with dots.\nTYPE nat.\nnat >= .\n",
]

#: CHECKER_VERSION -> sha256 of :func:`_rendered`.
RENDERED_DIGESTS = {
    "7": "d3d8fe4c3ae62fad75ebb8708ffb5de70d26af5b1ddbf751cfb1565740ecfa28",
}


def _rendered() -> str:
    texts = [
        (path.relative_to(EXAMPLES).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(EXAMPLES.glob("**/*.tlp"))
    ]
    texts += [(f"syntax-{index}.tlp", text) for index, text in enumerate(SYNTAX_ERRORS)]
    lines = []
    for name, text in texts:
        lines.extend(f"{name}:{diagnostic}" for diagnostic in check_text(text).diagnostics)
        lines.extend(f"{name}:{finding}" for finding in lint_text(text, path=name).diagnostics)
    return "\n".join(lines)


def test_rendered_text_is_pinned_to_the_checker_version():
    digest = hashlib.sha256(_rendered().encode("utf-8")).hexdigest()
    assert RENDERED_DIGESTS.get(CHECKER_VERSION) == digest, (
        "the rendered check/lint text changed: bump CHECKER_VERSION in "
        "repro/service/cache.py and record the new digest here"
    )
