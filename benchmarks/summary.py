"""Median micro-benchmarks of the paper's experiments, and the perf gates.

Every row is declared once below — a stable id, a label, the state its step
runs in, the step and the operations one step performs — in a group with
the rows it is compared against.  A group's steps run interleaved (in
alternating order) on one CPU, each duration is scaled to the speed of the
tlpbench calibration machine by the reference workload timed around it,
``repeat`` and ``summarize`` from ``benchmarks/tlpbench/harness.py`` turn
each row's samples into a median and an interquartile range per
operation, and every gate reads medians of the same run::

    python benchmarks/summary.py                   # full sizes: about 20 s
    python benchmarks/summary.py --quick --json out.json --baseline BENCH_subtype.json
    python benchmarks/summary.py --run-report run-report.json

``--quick``
    CI-smoke sizes (about ten seconds).
``--json OUT``
    Write the ``tlp-bench-subtype/2`` document to ``OUT``: one row
    ``{id, label, state, n, ns_median, ns_iqr}`` per measurement, the
    warm batch pass's run report, the process-wide intern, shared-memo and
    automata statistics, and the ``repro.obs`` telemetry collected while
    the rows ran.  Naming ``BENCH_subtype.json`` here re-baselines it; a
    run writes no other file.
``--baseline FILE``
    Fail when a row's median is more than ``MAX_REGRESSION`` times its
    median in FILE, a ``/2`` document.  Ids in only one of the two are
    listed but not gated.
``--run-report FILE``
    Fail when a ``tlp-run-report/1`` file (``tlp-batch --report``) has a
    ``cache.hit_rate`` below ``MIN_HIT_RATE``.  Given alone, nothing is
    measured.

The within-run gates (``FLOORS``, ``CEILINGS``) apply to every
measurement.  The exit status is 1 when any gate fails.  The state of a
row is ``cold`` when the cache the row is about (engine memo and compiled
automaton, result cache) starts empty in every step, and ``warm`` when
the warm-up steps filled it.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import platform
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import LintConfig, lint_text
from repro.checker import check_text
from repro.core import (
    ConstraintMatcher,
    Matcher,
    NaiveSubtypeProver,
    SubtypeEngine,
    TypedRunner,
    validate_restrictions,
)
from repro.core.automata import AUTOMATA
from repro.core.derivation import DerivationBuilder, verify_derivation
from repro.core.shared_memo import SHARED_MEMO
from repro.lang import parse_term as T
from repro.lp import Database, Query, SLDEngine
from repro.service.cache import ResultCache
from repro.service.project import load_project
from repro.service.report import SCHEMA as RUN_REPORT_SCHEMA, build_run_report
from repro.service.runner import run_batch
from repro.terms import Struct, Var, intern_stats
from repro.workloads import (
    ILL_TYPED_EXAMPLES,
    deep_int,
    deep_nat,
    load,
    nat_list,
    paper_universe,
    random_guarded_constraint_set,
    synthetic_list_program,
)

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "_tlpbench_harness", HERE / "tlpbench" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


harness = _load_harness()

SCHEMA = "tlp-bench-subtype/2"


@dataclass(frozen=True)
class Bench:
    """One row: ``step`` is timed, ``prepare`` runs untimed before it."""

    id: str
    label: str
    state: str  # "cold" or "warm"
    step: Callable[[], object]
    ops: int = 1
    prepare: Callable[[], object] = lambda: None


@dataclass(frozen=True)
class Group:
    """Rows measured together: ``warmup`` unmeasured then ``repetitions``
    measured rounds, each running every row's step once."""

    benches: Sequence[Bench]
    repetitions: int
    warmup: int = 1
    run_report: Optional[Dict[str, Any]] = None


# -- E1/E4: the deterministic engine and match, first query ---------------------


def engine_group(quick: bool, scratch: Path) -> Group:
    """Theorems 1–3 membership and Definition 13 ``match`` as a process's
    first query pays them: a fresh engine on a freshly compiled automaton
    and an empty expansion table (the intern table stays warm)."""
    cset = paper_universe()
    nat, list_nat = T("nat"), T("list(nat)")
    benches = []

    def cold() -> None:
        AUTOMATA.clear()
        cset._expansion_table.clear()

    def row(id_: str, label: str, query: Callable[[], object], expected) -> None:
        assert query() == expected, label
        benches.append(Bench(id_, label, "cold", query, prepare=cold))

    for depth in (64, 256) if quick else (512, 4096, 32768):
        term = deep_nat(depth)
        row(
            f"subtype.member.nat.{depth}",
            f"E1 engine: succ^{depth}(0) ∈ nat",
            lambda term=term: SubtypeEngine(cset).contains(nat, term),
            True,
        )
    for depth in (64,) if quick else (512, 4096):
        term = deep_int(depth)
        row(
            f"subtype.refute.int.{depth}",
            f"E1 engine: refute pred^{depth}(0) ∈ nat",
            lambda term=term: SubtypeEngine(cset).contains(nat, term),
            False,
        )
    for length in (64,) if quick else (256, 4096):
        term = nat_list(length)
        row(
            f"subtype.member.list.{length}",
            f"E1 engine: {length}-element list ∈ list(nat)",
            lambda term=term: SubtypeEngine(cset).contains(list_nat, term),
            True,
        )
    for length in (64,) if quick else (256, 2048):
        term = nat_list(length)
        row(
            f"match.list.{length}",
            f"E4 match(list(nat), {length}-element list)",
            lambda term=term: Matcher(cset).match(list_nat, term),
            Matcher(cset, automata=False).match(list_nat, term),
        )
    # Section 7's matcher on an open type over a ground list: the checker's
    # common case (a polymorphic predicate type meeting a ground argument).
    open_list, element = T("list(A)"), Var("A")
    for length in (64,) if quick else (256,):
        term = nat_list(length)
        row(
            f"constraint_match.open_list.{length}",
            f"E4 constraint match(list(A), {length}-element list), A solvable",
            lambda term=term: ConstraintMatcher(cset).match(open_list, term, {element}),
            ConstraintMatcher(cset, automata=False).match(open_list, term, {element}),
        )
    return Group(benches, repetitions=21 if quick else 31)


# -- E2: naive SLD over H_C --------------------------------------------------


def naive_group(quick: bool, scratch: Path) -> Group:
    """Definition 3's bounded SLD search; a 4-element list diverges (more
    than 240 s at every tried bound), so it is not measured."""
    naive = NaiveSubtypeProver(paper_universe(), max_depth=40, step_limit=4_000_000)
    list_nat = T("list(nat)")
    benches = []
    for length in (1, 2) if quick else (1, 2, 3):
        term = nat_list(length, element_depth=0)
        assert naive.holds(list_nat, term) is True
        benches.append(
            Bench(
                f"subtype.naive.list.{length}",
                f"E2 naive SLD: {length}-element list ∈ list(nat)",
                "cold",
                lambda term=term: naive.holds(list_nat, term),
            )
        )
    return Group(benches, repetitions=5 if quick else 7, warmup=0)


# -- E3, P1, E7, E11, E6: restrictions, checking, typed execution -----------------


def paper_group(quick: bool, scratch: Path) -> Group:
    types = 32 if quick else 128
    big = random_guarded_constraint_set(random.Random(7), type_count=types)

    clauses = 16 if quick else 128
    source = synthetic_list_program(clauses)
    module = check_text(source)
    assert module.ok
    clause_count = len(module.program)

    elements = 16 if quick else 64
    append = load("append")
    runner = TypedRunner(append.checker, append.program)
    database = Database(append.program)
    nil = Struct("nil", ())
    items = nil
    for _ in range(elements):
        items = Struct("cons", (nil, items))
    query = Query((Struct("app", (items, Struct("cons", (nil, nil)), Var("R"))),))
    result = runner.run(query, check_answers=True)
    assert result.ok and not result.violations

    # Insertion sort of a descending list: every insert walks the partial
    # output list, so each step binds a tail goal's list variable.
    sort_length = 16 if quick else 32
    isort = load("insertion_sort")
    sort_runner = TypedRunner(isort.checker, isort.program)
    descending = Struct("nil", ())
    for value in range(sort_length):
        descending = Struct("cons", (deep_nat(value), descending))
    sort_query = Query((Struct("isort", (descending, Var("S"))),))
    sorted_result = sort_runner.run(sort_query, depth_limit=None)
    assert sorted_result.ok and len(sorted_result.answers) == 1

    builder = DerivationBuilder(paper_universe())
    list_a, cons_foo = T("list(A)"), T("cons(foo,nil)")
    derivation = builder.derive(list_a, cons_foo)
    assert derivation is not None and verify_derivation(derivation)

    ill_typed = list(ILL_TYPED_EXAMPLES.values())
    rejected = sum(1 for text in ill_typed if not check_text(text).ok)
    assert rejected == len(ill_typed)

    return Group(
        [
            Bench(
                f"restrictions.guarded.{types}",
                f"E3 uniform+guarded analysis, {types}-type universe",
                "cold",
                lambda: validate_restrictions(big),
            ),
            Bench(
                f"check.synthetic.{clause_count}",
                f"P1 whole-file check, {clause_count} clauses (per clause)",
                "warm",
                lambda: check_text(source),
                ops=clause_count,
            ),
            Bench(
                f"sld.append.{elements}",
                f"E7 plain SLD, {elements}-element append",
                "warm",
                lambda: list(SLDEngine(database).solve(query.goals)),
            ),
            Bench(
                f"sld.typed_run.append.{elements}",
                f"E7 + per-resolvent re-check ({result.steps} resolvents)",
                "warm",
                lambda: runner.run(query, check_answers=True),
            ),
            Bench(
                f"sld.typed_run.isort.{sort_length}",
                f"E7 typed insertion sort, {sort_length}-element descending list "
                f"({sorted_result.steps} resolvents)",
                "warm",
                lambda: sort_runner.run(sort_query, depth_limit=None),
            ),
            Bench(
                "derivation.section2",
                f"E11 Section 2 refutation regenerated+verified "
                f"({derivation.length} steps)",
                "warm",
                lambda: verify_derivation(builder.derive(list_a, cons_foo)),
            ),
            Bench(
                "check.ill_typed",
                f"E6 paper's ill-typed examples rejected "
                f"({rejected}/{len(ill_typed)}, per example)",
                "warm",
                lambda: [check_text(text) for text in ill_typed],
                ops=len(ill_typed),
            ),
        ],
        repetitions=21 if quick else 31,
    )


# -- B1/B2: the batch checking service ------------------------------------------

#: A warm re-check of an unchanged corpus replays every verdict from the
#: persistent cache and must beat the cold check by this factor.
BATCH_FLOORS = (("batch.warm.per_file", "batch.cold.per_file", 5.0),)


def _batch_corpus(scratch: Path, quick: bool) -> Path:
    """examples/programs plus synthetic list programs."""
    corpus = scratch / "corpus"
    corpus.mkdir()
    for source in sorted((REPO_ROOT / "examples" / "programs").glob("*.tlp")):
        shutil.copy(source, corpus / source.name)
    predicates = 8 if quick else 24
    for index in range(4 if quick else 12):
        text = synthetic_list_program(predicates) + f"% workload {index}\n"
        (corpus / f"synthetic{index:03}.tlp").write_text(text)
    return corpus


def batch_group(quick: bool, scratch: Path) -> Group:
    project = load_project([str(_batch_corpus(scratch, quick))])
    files = len(project.files)
    caches = itertools.count()
    fresh: List[ResultCache] = []

    def fresh_cache() -> None:
        fresh[:] = [ResultCache(str(scratch / f"cold-cache-{next(caches)}"))]

    warm_cache = ResultCache(str(scratch / "warm-cache"))
    cold = run_batch(project, cache=warm_cache)
    warm = run_batch(project, cache=warm_cache)
    assert warm.hit_rate == 1.0 and warm.files_checked == 0
    assert {r.display: r.diagnostics for r in warm.results} == {
        r.display: r.diagnostics for r in cold.results
    }, "warm diagnostics must replay the cold run byte-for-byte"
    run_report = build_run_report(
        warm, project={"name": "bench-batch-warm", "files": files}
    )
    jobs = 2 if quick else 4
    return Group(
        [
            Bench(
                "batch.cold.per_file",
                f"B1 cold batch check, {files} files (per file)",
                "cold",
                lambda: run_batch(project, cache=fresh[0]),
                ops=files,
                prepare=fresh_cache,
            ),
            Bench(
                "batch.warm.per_file",
                "B1 warm re-check, 100% cache hits (per file)",
                "warm",
                lambda: run_batch(project, cache=warm_cache),
                ops=files,
            ),
            Bench(  # the process pool, which no tlpbench workload runs
                f"batch.pool.{jobs}.per_file",
                f"B2 cold batch check, {jobs} process workers on one CPU, no cache (per file)",
                "cold",
                lambda: run_batch(project, jobs=jobs, use="process"),
                ops=files,
            ),
        ],
        repetitions=11 if quick else 21,
        run_report=run_report,
    )


# -- TA2/TA3: compiled tree automata ---------------------------------------------

NAT_DEPTH = 256
LIST_LENGTH = 64

#: The table walk must beat the template-expansion path (``automata=False``)
#: of the same run by this factor.  The committed baseline has the
#: automata on, so only the ``.fallback`` rows can see the fast path
#: degrade into the template path.
AUTOMATA_FLOORS = (
    (f"automata.member.nat.{NAT_DEPTH}", f"automata.member.nat.{NAT_DEPTH}.fallback", 3.0),
    (f"automata.match.list.{LIST_LENGTH}", f"automata.match.list.{LIST_LENGTH}.fallback", 3.0),
)


def automata_group(quick: bool, scratch: Path) -> Group:
    """Fresh engines and matchers per query, the term rebuilt each time."""
    cset = paper_universe()
    nat, list_nat = T("nat"), T("list(nat)")

    def member(automata: bool) -> Callable[[], object]:
        return lambda: SubtypeEngine(cset, automata=automata).contains(
            nat, deep_nat(NAT_DEPTH)
        )

    def match(automata: bool) -> Callable[[], object]:
        return lambda: Matcher(cset, automata=automata).match(
            list_nat, nat_list(LIST_LENGTH)
        )

    assert member(True)() is True and member(False)() is True
    assert match(True)() == match(False)()
    return Group(
        [
            Bench(
                f"automata.member.nat.{NAT_DEPTH}",
                f"TA2 automaton member: succ^{NAT_DEPTH}(0) ∈ nat",
                "warm",
                member(True),
            ),
            Bench(
                f"automata.member.nat.{NAT_DEPTH}.fallback",
                f"TA2 template member: succ^{NAT_DEPTH}(0) ∈ nat, automata off",
                "warm",
                member(False),
            ),
            Bench(
                f"automata.match.list.{LIST_LENGTH}",
                f"TA3 automaton match(list(nat), {LIST_LENGTH}-element list)",
                "warm",
                match(True),
            ),
            Bench(
                f"automata.match.list.{LIST_LENGTH}.fallback",
                f"TA3 template match(list(nat), {LIST_LENGTH}-element list), "
                "automata off",
                "warm",
                match(False),
            ),
        ],
        repetitions=21 if quick else 41,
    )


# -- P2/P3: the TLP6xx solver's cost on monomorphic lint --------------------------

#: The solver's activation gate keeps linting the variable-free corpus
#: within this factor of linting it with the family disabled.
POLYTYPES_CEILINGS = (("polytypes.lint.corpus", "polytypes.lint.corpus.nosolver", 1.1),)

#: The variable-free members of the seeded lint corpus.
MONO_CORPUS = (
    "missing_filter.tlp",
    "modes.tlp",
    "success_sets.tlp",
    "unguarded.tlp",
    "uninhabited.tlp",
)


def polytypes_group(quick: bool, scratch: Path) -> Group:
    root = REPO_ROOT / "examples" / "corpus" / "lint"
    texts = [(root / name).read_text(encoding="utf-8") for name in MONO_CORPUS]
    solver_off = LintConfig(
        disabled=frozenset({"TLP601", "TLP602", "TLP603", "TLP604", "TLP605"})
    )

    def lint_corpus(config: LintConfig) -> Callable[[], object]:
        return lambda: [lint_text(text, config=config) for text in texts]

    return Group(
        [
            Bench(
                "polytypes.lint.corpus",
                f"P2 lint monomorphic corpus ({len(texts)} files), TLP6xx on",
                "warm",
                lint_corpus(LintConfig()),
            ),
            Bench(
                "polytypes.lint.corpus.nosolver",
                f"P3 lint monomorphic corpus ({len(texts)} files), TLP6xx off",
                "warm",
                lint_corpus(solver_off),
            ),
        ],
        repetitions=61 if quick else 101,
        warmup=2,
    )


GROUPS = (
    engine_group,
    naive_group,
    paper_group,
    batch_group,
    automata_group,
    polytypes_group,
)

#: (fast id, slow id, floor): the slow median is at least floor x the fast.
FLOORS = AUTOMATA_FLOORS + BATCH_FLOORS
#: (id, base id, ceiling): the median is at most ceiling x the base's.
CEILINGS = POLYTYPES_CEILINGS
#: Floor on a run report's ``cache.hit_rate``: below it a fingerprint
#: broke, the checker version moved silently or the cache stopped
#: persisting.
MIN_HIT_RATE = 0.99
#: Ceiling on a row's median over its baseline median.  Loose on purpose:
#: it catches a dropped memo or a broken intern table, not drift.
MAX_REGRESSION = 2.0


# -- measuring ----------------------------------------------------------------------


def measure(group: Group) -> List[Dict[str, object]]:
    """Run a group's rounds; one row per bench, medians per operation.

    Before every round the harness's reference workload is timed, and
    each step's duration is scaled by the reference times just before and
    after its round (``harness.scale_around``): a shared machine's slow
    spells, some shorter than a reference run, then move single samples,
    not a median or a ratio of two interleaved rows."""
    benches = list(group.benches)
    speedometer = harness.Speedometer()
    references: List[Tuple[int, int]] = []

    def reference() -> None:
        elapsed = speedometer.sample()
        references.append((speedometer.last, elapsed))

    def round_(index: int) -> List[Tuple[int, int]]:
        spans = [(0, 0)] * len(benches)
        order = range(len(benches)) if index % 2 == 0 else reversed(range(len(benches)))
        reference()
        for position in order:
            bench = benches[position]
            bench.prepare()
            start = harness.now_ns()
            bench.step()
            spans[position] = (start, harness.now_ns())
        return spans

    samples = harness.repeat(round_, group.repetitions, group.warmup)
    reference()
    rows = []
    for bench, column in zip(benches, zip(*samples)):
        stats = harness.summarize(
            [
                (end - start) * harness.scale_around(references, start, end) / bench.ops
                for start, end in column
            ]
        )
        rows.append(
            {
                "id": bench.id,
                "label": bench.label,
                "state": bench.state,
                "n": stats.n,
                "ns_median": round(stats.median, 1),
                "ns_iqr": round(stats.iqr, 1),
            }
        )
    return rows


def measure_all(quick: bool) -> Dict[str, Any]:
    """Every group, with telemetry on; the ``/2`` document."""
    rows: List[Dict[str, object]] = []
    run_report: Optional[Dict[str, Any]] = None
    obs.reset()
    obs.METRICS.enabled = True
    try:
        # On one CPU, the one the reference workload runs on: the virtual
        # CPUs of a shared machine run at different speeds at one moment.
        cpu, _ = harness.cpus()
        with harness.on_cpu(cpu), tempfile.TemporaryDirectory(
            prefix="tlp-bench-"
        ) as scratch:
            for build in GROUPS:
                group = build(quick, Path(scratch))
                rows.extend(measure(group))
                run_report = group.run_report or run_report
        telemetry = obs.summary()
    finally:
        obs.METRICS.enabled = False
    stats = intern_stats()
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "rows": rows,
        "run_report": run_report,
        "intern": {
            "size": stats.size,
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": round(stats.hit_rate, 4),
        },
        "shared_memo": SHARED_MEMO.stats(),
        "automata": AUTOMATA.stats(),
        "telemetry": telemetry,
    }


def render(document: Dict[str, Any]) -> str:
    rows = document["rows"]
    width = max(len(row["label"]) for row in rows) + 2
    lines = [
        f"{'experiment'.ljust(width)}{'median µs/op':>14}{'iqr µs':>10}{'n':>4}  state",
        "-" * (width + 35),
    ]
    for row in rows:
        lines.append(
            f"{row['label'].ljust(width)}{row['ns_median'] / 1e3:>14,.1f}"
            f"{row['ns_iqr'] / 1e3:>10,.1f}{row['n']:>4}  {row['state']}"
        )
    return "\n".join(lines)


# -- gates ----------------------------------------------------------------------------

#: (passed, message)
Verdict = Tuple[bool, str]


def medians(document: Dict[str, Any]) -> Dict[str, float]:
    return {str(row["id"]): float(row["ns_median"]) for row in document["rows"]}


def ratio_gates(document: Dict[str, Any]) -> List[Verdict]:
    """``FLOORS`` and ``CEILINGS`` on the medians of one document."""
    ns = medians(document)
    checks = [(slow, fast, floor, "floor") for fast, slow, floor in FLOORS]
    checks += [(id_, base, ceiling, "ceiling") for id_, base, ceiling in CEILINGS]
    verdicts: List[Verdict] = []
    for top, bottom, bound, kind in checks:
        if top not in ns or bottom not in ns:
            verdicts.append((False, f"{top} / {bottom}: row missing"))
            continue
        ratio = ns[top] / ns[bottom]
        passed = ratio >= bound if kind == "floor" else ratio <= bound
        verdicts.append((passed, f"{top} / {bottom} = {ratio:.3f}x ({kind} {bound}x)"))
    return verdicts


def baseline_gate(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> List[Verdict]:
    """Each row's median against its baseline median (``MAX_REGRESSION``)."""
    schema = baseline.get("schema")
    if schema != SCHEMA:
        return [
            (
                False,
                f"baseline schema is {schema!r}, not {SCHEMA!r}: its rows are not "
                "medians; re-baseline with summary.py --quick --json FILE",
            )
        ]
    old, new = medians(baseline), medians(current)
    common = sorted(old.keys() & new.keys())
    if not common:
        return [(False, "no row id in common with the baseline")]
    verdicts: List[Verdict] = [
        (
            new[id_] <= MAX_REGRESSION * old[id_],
            f"{id_} = {new[id_] / old[id_]:.2f}x baseline "
            f"(ceiling {MAX_REGRESSION}x)",
        )
        for id_ in common
    ]
    for side, ids in (("baseline", old.keys() - new.keys()), ("this run", new.keys() - old.keys())):
        if ids:
            verdicts.append((True, f"only in {side}, not gated: {', '.join(sorted(ids))}"))
    return verdicts


def run_report_gate(report: Dict[str, Any]) -> List[Verdict]:
    """A run report's cache hit rate against ``MIN_HIT_RATE``."""
    schema = report.get("schema")
    if schema != RUN_REPORT_SCHEMA:
        return [(False, f"run report schema is {schema!r}, not {RUN_REPORT_SCHEMA!r}")]
    cache = report.get("cache", {})
    hit_rate = float(cache.get("hit_rate", 0.0))
    return [
        (
            hit_rate >= MIN_HIT_RATE,
            f"run report cache.hit_rate = {hit_rate:.1%} over "
            f"{report.get('files', {}).get('total', '?')} files (floor {MIN_HIT_RATE:.0%})",
        )
    ]


def _read(path: str, what: str) -> Tuple[Optional[Dict[str, Any]], List[Verdict]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle), []
    except (OSError, json.JSONDecodeError) as error:
        return None, [(False, f"{what} {path}: unreadable: {error}")]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-smoke sizes")
    parser.add_argument("--json", metavar="OUT", help="write the /2 document to OUT")
    parser.add_argument(
        "--baseline", metavar="FILE", help=f"fail past {MAX_REGRESSION}x a /2 document"
    )
    parser.add_argument(
        "--run-report",
        metavar="FILE",
        help=f"fail when a run report's cache hit rate is below {MIN_HIT_RATE}",
    )
    arguments = parser.parse_args(argv)

    verdicts: List[Verdict] = []
    if arguments.run_report is not None:
        report, verdicts = _read(arguments.run_report, "run report")
        if report is not None:
            verdicts = run_report_gate(report)
    if arguments.run_report is None or arguments.quick or arguments.json or arguments.baseline:
        baseline = None
        if arguments.baseline is not None:
            baseline, failures = _read(arguments.baseline, "baseline")
            verdicts += failures
        document = measure_all(arguments.quick)
        print(render(document))
        if arguments.json is not None:
            with open(arguments.json, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, ensure_ascii=False)
                handle.write("\n")
            print(f"\nwrote {arguments.json}", file=sys.stderr)
        verdicts += ratio_gates(document)
        if baseline is not None:
            verdicts += baseline_gate(baseline, document)
    print()
    for passed, message in verdicts:
        print(f"{'ok  ' if passed else 'FAIL'} {message}", file=sys.stdout if passed else sys.stderr)
    return 0 if all(passed for passed, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
