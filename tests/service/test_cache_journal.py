"""The result cache's append-only journal: what ``save`` writes, what a
load replays, and what compaction folds into the index."""

import json
import os
import sys
import threading
import time

from repro.service.cache import (
    CHECKER_VERSION,
    INDEX_NAME,
    JOURNAL_NAME,
    LOCK_NAME,
    CachedResult,
    ResultCache,
)


VERSION = CHECKER_VERSION.encode("ascii")


def _result(tag, checked_at=0.0):
    return CachedResult(
        ok=True,
        diagnostics=(f"diag-{tag}",),
        clauses=1,
        queries=0,
        duration_s=0.0,
        checked_at=checked_at,
    )


def _digest(tag):
    return f"{tag:0>64}"


def _put(cache, tag, checked_at=0.0):
    cache.put(_digest(tag), _digest("d"), _result(tag, checked_at), display=tag)


def _has(cache, tag):
    return cache.get(_digest(tag), _digest("d")) is not None


def _journal_lines(directory):
    path = directory / JOURNAL_NAME
    if not path.exists():
        return []
    return path.read_bytes().splitlines()


def _seeded(directory, count):
    """A cache with ``count`` entries, all in the index."""
    cache = ResultCache(str(directory))
    for index in range(count):
        _put(cache, f"seed{index}")
    cache.save()  # no index yet: compacts
    assert _journal_lines(directory) == []
    return cache


def test_save_appends_one_line_and_leaves_the_index_alone(tmp_path):
    cache = _seeded(tmp_path, 200)
    index = tmp_path / INDEX_NAME
    before_bytes = index.read_bytes()
    before_mtime = index.stat().st_mtime_ns

    _put(cache, "fresh")
    cache.save()

    lines = _journal_lines(tmp_path)
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["op"] == "put" and record["v"] == CHECKER_VERSION
    assert record["key"] == ResultCache.key(_digest("fresh"), _digest("d"))
    assert index.read_bytes() == before_bytes
    assert index.stat().st_mtime_ns == before_mtime
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == 201 and _has(reloaded, "fresh")


def test_save_compacts_once_the_journal_would_outgrow_the_index(tmp_path):
    cache = _seeded(tmp_path, 2)
    index_size = (tmp_path / INDEX_NAME).stat().st_size
    saves = 0
    while _journal_lines(tmp_path) or saves == 0:
        _put(cache, f"more{saves}")
        cache.save()
        saves += 1
        assert (tmp_path / JOURNAL_NAME).stat().st_size <= index_size
    assert saves > 1  # some appends came first
    assert len(json.loads((tmp_path / INDEX_NAME).read_text())["entries"]) == 2 + saves


def test_a_torn_last_line_is_ignored(tmp_path):
    cache = _seeded(tmp_path, 5)
    _put(cache, "whole")
    cache.save()
    with open(tmp_path / JOURNAL_NAME, "ab") as journal:
        journal.write(b'{"v": "%s", "op": "put", "key": "torn", "en' % VERSION)

    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == 6 and _has(reloaded, "whole")

    # The next append starts on a fresh line, so the torn one stays torn
    # and the new record is read back.
    _put(reloaded, "after")
    reloaded.save()
    assert _has(ResultCache(str(tmp_path)), "after")


def test_a_foreign_version_journal_is_ignored(tmp_path):
    _seeded(tmp_path, 3)
    with open(tmp_path / JOURNAL_NAME, "ab") as journal:
        for record in (
            {"v": "other", "op": "put", "key": "x", "entry": _result("x").to_json()},
            {"v": "other", "op": "clear", "at": 1e12},
        ):
            journal.write(json.dumps(record).encode() + b"\n")

    ours = ResultCache(str(tmp_path))
    assert len(ours) == 3
    assert "x" not in ours._entries


def test_a_clear_record_kills_foreign_index_entries(tmp_path):
    _seeded(tmp_path, 4)  # another writer's entries, in the index
    stale = ResultCache(str(tmp_path))  # loads them before the clear
    ours = ResultCache(str(tmp_path))
    ours.invalidate(None)
    _put(ours, "after-clear", checked_at=ResultCache.now() + 1)
    ours.save()
    assert [json.loads(line)["op"] for line in _journal_lines(tmp_path)] == [
        "clear",
        "put",
    ]
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == 1 and _has(reloaded, "after-clear")

    # A writer that loaded the index before the clear cannot resurrect
    # its copies when it compacts: replaying the clear tombstones them.
    _put(stale, "later", checked_at=ResultCache.now() + 1)
    stale.compact()
    assert _journal_lines(tmp_path) == []
    final = ResultCache(str(tmp_path))
    assert sorted(payload["path"] for payload in final._entries.values()) == [
        "after-clear",
        "later",
    ]


def test_tombstone_records_replay(tmp_path):
    cache = _seeded(tmp_path, 3)
    assert cache.invalidate("seed1") == 1
    cache.save()
    assert json.loads(_journal_lines(tmp_path)[0])["op"] == "drop"
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == 2 and not _has(reloaded, "seed1")


def test_compact_folds_the_journal_into_the_index(tmp_path):
    cache = _seeded(tmp_path, 10)
    _put(cache, "j1")
    cache.save()
    assert len(_journal_lines(tmp_path)) == 1
    ResultCache(str(tmp_path)).compact()  # a reader with nothing unsaved
    assert _journal_lines(tmp_path) == []
    index = json.loads((tmp_path / INDEX_NAME).read_text())
    assert len(index["entries"]) == 11


def test_compact_is_a_noop_with_nothing_to_fold(tmp_path):
    ResultCache(str(tmp_path)).compact()
    assert not (tmp_path / INDEX_NAME).exists()


def test_appenders_racing_a_compactor_lose_no_entries(tmp_path, monkeypatch):
    # A large index keeps the appenders appending: only the fifth thread
    # compacts, so an append landing between its journal read and its
    # truncation would be lost for good.  A slow index rename holds that
    # window open.
    seeded, writers, per_writer = 200, 4, 50
    _seeded(tmp_path, seeded)
    replace = os.replace

    def slow_replace(source, target):
        time.sleep(0.005)
        replace(source, target)

    monkeypatch.setattr(os, "replace", slow_replace)
    errors = []
    done = threading.Event()
    start = threading.Barrier(writers + 1, timeout=60)

    def append(writer_index):
        try:
            cache = ResultCache(str(tmp_path))
            start.wait()
            for sequence in range(per_writer):
                _put(cache, f"w{writer_index}s{sequence}")
                cache.save()
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def compact():
        try:
            compactor = ResultCache(str(tmp_path))
            start.wait()
            while not done.is_set():
                compactor.compact()
        except Exception as error:  # pragma: no cover
            errors.append(error)

    appenders = [
        threading.Thread(target=append, args=(index,)) for index in range(writers)
    ]
    compactor = threading.Thread(target=compact)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        compactor.start()
        for thread in appenders:
            thread.start()
        for thread in appenders:
            thread.join(timeout=120)
        done.set()
        compactor.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert errors == []
    assert not any(thread.is_alive() for thread in appenders + [compactor])

    survivor = ResultCache(str(tmp_path))
    assert len(survivor) == seeded + writers * per_writer
    survivor.compact()
    index = json.loads((tmp_path / INDEX_NAME).read_text())
    assert len(index["entries"]) == seeded + writers * per_writer
    assert not (tmp_path / LOCK_NAME).exists()
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
