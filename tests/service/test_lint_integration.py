"""Lint wired through the batch service: cache keys carry the rule-set
fingerprint, warm runs replay findings without re-linting, and the
daemon answers ``lint`` requests."""

import json

from repro.analysis import LintConfig, ruleset_fingerprint
from repro.service.cache import CHECKER_VERSION, CachedResult, ResultCache
from repro.service.daemon import CheckService
from repro.service.project import Project, ProjectFile, fingerprint
from repro.service.runner import run_batch

CLEAN_WITH_SINGLETON = """\
FUNC nil.
TYPE t.
t >= nil.
PRED p(t).
PRED q(t).
q(X) :- p(X), p(Y).
"""


def make_project(tmp_path, text=CLEAN_WITH_SINGLETON):
    path = tmp_path / "member.tlp"
    path.write_text(text)
    project = Project(name="lint-test", root=tmp_path)
    project.files.append(ProjectFile.read(path, display="member.tlp"))
    return project


def test_checker_version_is_bumped():
    # Built-in constraint signatures and the TLP6xx polymorphic rules
    # change frontend verdicts and lint findings: version "5" indexes
    # (and older) must not replay into this build.  "7": renumbered
    # generated names and positioned syntax errors change rendered text.
    assert CHECKER_VERSION == "7"


def test_lint_findings_ride_in_results_and_cache(tmp_path):
    project = make_project(tmp_path)
    config = LintConfig()
    cache = ResultCache(
        str(tmp_path / "cache"), ruleset=ruleset_fingerprint(config)
    )
    cold = run_batch(project, cache=cache, jobs=1, lint=config)
    assert len(cold.results) == 1
    assert cold.cache_misses == 1
    assert any("TLP203" in line for line in cold.results[0].lint)
    cache.save()

    warm_cache = ResultCache(
        str(tmp_path / "cache"), ruleset=ruleset_fingerprint(config)
    )
    warm = run_batch(project, cache=warm_cache, jobs=1, lint=config)
    assert warm.cache_hits == 1 and warm.cache_misses == 0
    # The warm run replays the lint lines byte-for-byte.
    assert warm.results[0].lint == cold.results[0].lint


def test_ruleset_change_invalidates_only_lint_entries(tmp_path):
    project = make_project(tmp_path)
    base = LintConfig()
    cache = ResultCache(
        str(tmp_path / "cache"), ruleset=ruleset_fingerprint(base)
    )
    run_batch(project, cache=cache, jobs=1, lint=base)
    cache.save()

    # Same corpus, singleton rule disabled: different fingerprint, miss.
    trimmed = LintConfig(disabled=frozenset({"TLP203"}))
    other = ResultCache(
        str(tmp_path / "cache"), ruleset=ruleset_fingerprint(trimmed)
    )
    report = run_batch(project, cache=other, jobs=1, lint=trimmed)
    assert report.cache_hits == 0 and report.cache_misses == 1
    assert report.results[0].lint == ()
    other.save()

    # The original rule set still hits its own entries.
    again = ResultCache(
        str(tmp_path / "cache"), ruleset=ruleset_fingerprint(base)
    )
    report = run_batch(project, cache=again, jobs=1, lint=base)
    assert report.cache_hits == 1


def test_no_lint_runs_use_the_legacy_two_part_key(tmp_path):
    project = make_project(tmp_path)
    cache = ResultCache(str(tmp_path / "cache"))
    run_batch(project, cache=cache, jobs=1)
    cache.save()
    digest = project.files[0].digest
    index = json.loads((tmp_path / "cache" / "tlp-cache.json").read_text())
    assert f"{digest}.{project.declarations_digest}" in index["entries"]


def test_key_static_method_back_compat():
    assert ResultCache.key("f1", "d1") == "f1.d1"
    assert ResultCache.key("f1", "d1", "rs") == "f1.d1.rs"


def test_cached_result_lint_back_compat():
    # Pre-lint payloads (no "lint" key) still load.
    payload = {
        "ok": True,
        "diagnostics": [],
        "clauses": 1,
        "queries": 0,
        "duration_s": 0.1,
        "checked_at": 0.0,
    }
    restored = CachedResult.from_json(payload)
    assert restored.lint == ()
    assert CachedResult.from_json(restored.to_json()) == restored


def test_lint_runs_under_thread_pool(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.tlp").write_text(CLEAN_WITH_SINGLETON)
    project = Project(name="pool", root=tmp_path)
    for name in ("a", "b", "c"):
        project.files.append(
            ProjectFile.read(tmp_path / f"{name}.tlp", display=f"{name}.tlp")
        )
    report = run_batch(project, jobs=2, use="thread", lint=LintConfig())
    assert all(
        any("TLP203" in line for line in result.lint)
        for result in report.results
    )


# -- daemon -------------------------------------------------------------------


def test_daemon_lint_request_structured_findings():
    service = CheckService()
    response = service.handle(
        {"op": "lint", "text": CLEAN_WITH_SINGLETON}
    )
    assert response["ok"] and response["op"] == "lint"
    assert response["digest"] == fingerprint(CLEAN_WITH_SINGLETON)
    assert response["errors"] == 0 and response["warnings"] == 1
    finding = response["findings"][0]
    assert finding["code"] == "TLP203"
    assert finding["severity"] == "warning"
    assert finding["line"] == 6 and "end_column" in finding
    assert any("_Y" in fixit for fixit in finding["fixits"])


def test_daemon_lint_respects_disable():
    service = CheckService()
    response = service.handle(
        {"op": "lint", "text": CLEAN_WITH_SINGLETON, "disable": "TLP203"}
    )
    assert response["findings"] == []


def test_daemon_lint_reports_syntax_errors():
    service = CheckService()
    response = service.handle({"op": "lint", "text": "FUNC nil"})
    assert response["errors"] == 1
    assert response["findings"][0]["code"] == "TLP001"


def test_daemon_lint_needs_exactly_one_input():
    service = CheckService()
    assert not service.handle({"op": "lint"})["ok"]
    assert not service.handle(
        {"op": "lint", "text": "x.", "path": "y.tlp"}
    )["ok"]


def test_daemon_stats_count_lints():
    service = CheckService()
    service.handle({"op": "lint", "text": CLEAN_WITH_SINGLETON})
    stats = service.handle({"op": "stats"})["stats"]
    assert stats["lints"] == 1


ILL_MODED_QUERY = """\
TYPE nat, int.
FUNC 0, pred.
int >= nat.
nat >= 0.
int >= pred(int).
PRED makeint(int).
MODE makeint(OUT).
makeint(0).
PRED usenat(nat).
MODE usenat(IN).
usenat(0).
:- makeint(X), usenat(X).
"""


def test_daemon_lint_reports_mode_findings_with_fixits():
    service = CheckService()
    response = service.handle({"op": "lint", "text": ILL_MODED_QUERY})
    assert response["ok"]
    moded = [f for f in response["findings"] if f["code"] == "TLP502"]
    assert len(moded) == 1
    finding = moded[0]
    assert finding["severity"] == "error"
    assert finding["line"] == 12
    assert any("filter goal" in fixit for fixit in finding["fixits"])
