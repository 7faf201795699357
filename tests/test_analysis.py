"""Tests for repro.analysis — the pitlint static analyzer and its runtime
lock verifier.

Three layers:

* **fixture corpus** — every rule flags its known-bad twin at the exact
  lines marked ``# expect[rule-id]``, and reports nothing on the
  known-good twin;
* **live repo** — ``src`` analyzes clean (the CI gate), and the static
  lock-order graph is acyclic with the expected nodes;
* **static vs dynamic** — a threaded PlanCache/registry workload run
  under debug locks produces no acquisition-order edge the static graph
  does not predict.
"""

import json
import re
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis import (
    analyze,
    analyze_paths,
    extract_suppressions,
    known_rule_ids,
    load_corpus,
    static_lock_order,
)
from repro.analysis.__main__ import main as cli_main
from repro.analysis.findings import Suppression
from repro.analysis.runtime_checks import (
    DebugLock,
    LockOrderError,
    debug_locks_installed,
    make_lock,
    observed_edges,
    reset_observed,
    verify_against_static,
)
from repro.core import PlanCache, TileDB
from repro.hw import V100

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"

EXPECTED_RULE_IDS = {
    "lock-discipline",
    "async-hygiene",
    "replay-determinism",
    "seeded-rng",
    "frozen-spec-purity",
    "bounded-retry",
    "transport-hygiene",
    "pragma-justification",
}

EXPECT_RE = re.compile(r"#\s*expect\[([a-z-]+)\]")


def expected_markers(path: Path):
    """``(rule, line)`` for every ``# expect[rule]`` marker in a fixture."""
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for match in EXPECT_RE.finditer(line):
            out.append((match.group(1), lineno))
    return sorted(out)


def analyze_fixture(name: str):
    corpus = load_corpus([str(FIXTURES / name)], root=str(REPO_ROOT))
    return analyze(corpus)


class TestRuleRegistry:
    def test_all_five_plus_pragma_rules_registered(self):
        # Registration happens on first analyze(); force it via the CLI
        # import path used everywhere else.
        analyze_fixture("good_seeded_rng.py")
        assert set(known_rule_ids()) == EXPECTED_RULE_IDS


class TestFixtureCorpus:
    BAD = [
        "bad_lock_discipline.py",
        "bad_async_hygiene.py",
        "bad_replay_determinism.py",
        "bad_seeded_rng.py",
        "bad_frozen_spec.py",
        "bad_nm_permutation.py",
        "bad_bounded_retry.py",
        "bad_transport_hygiene.py",
    ]
    GOOD = [
        "good_lock_discipline.py",
        "good_async_hygiene.py",
        "good_replay_determinism.py",
        "good_seeded_rng.py",
        "good_frozen_spec.py",
        "good_nm_permutation.py",
        "good_bounded_retry.py",
        "good_transport_hygiene.py",
        "good_pragma.py",
    ]

    @pytest.mark.parametrize("name", BAD)
    def test_bad_fixture_flagged_at_exact_lines(self, name):
        report = analyze_fixture(name)
        got = sorted((f.rule, f.line) for f in report.findings)
        assert got == expected_markers(FIXTURES / name)

    @pytest.mark.parametrize("name", GOOD)
    def test_good_fixture_is_clean(self, name):
        report = analyze_fixture(name)
        assert [f"{f.location()} {f.message}" for f in report.findings] == []

    def test_bad_pragma_fixture(self):
        """Unjustified, unknown-rule, and stale pragmas are each findings;
        the unjustified one still suppresses (the finding moves to the
        audit trail), so the only surviving rule is the pragma audit."""
        report = analyze_fixture("bad_pragma.py")
        got = sorted((f.rule, f.line) for f in report.findings)
        assert got == [
            ("pragma-justification", 9),   # no justification
            ("pragma-justification", 10),  # unknown rule id
            ("pragma-justification", 10),  # ...and therefore suppresses nothing
            ("pragma-justification", 11),  # stale: no finding on the line
        ]
        assert [(f.rule, f.line) for f in report.suppressed] == [
            ("seeded-rng", 9)
        ]


class TestSuppressions:
    def test_same_line_and_standalone_coverage(self):
        source = textwrap.dedent(
            """\
            x = 1  # pit: allow[seeded-rng] - same line
            # pit: allow[lock-discipline] - covers the statement below
            y = 2
            """
        )
        sup = extract_suppressions(source, "f.py")
        assert [(s.rule, s.line, s.covers, s.reason is not None) for s in sup] == [
            ("seeded-rng", 1, (1,), True),
            ("lock-discipline", 2, (2, 3), True),
        ]

    def test_wildcard_matches_any_rule(self):
        sup = Suppression(
            rule="*", path="f.py", line=3, covers=(3,), reason="why"
        )
        from repro.analysis import Finding

        assert sup.matches(
            Finding(rule="seeded-rng", path="f.py", line=3, message="m")
        )
        assert not sup.matches(
            Finding(rule="seeded-rng", path="f.py", line=4, message="m")
        )

    def test_pragma_inside_string_literal_is_ignored(self):
        source = 'text = "# pit: allow[seeded-rng] - not a comment"\n'
        assert extract_suppressions(source, "f.py") == []


class TestLiveRepo:
    def test_src_is_finding_free(self):
        """The CI gate: the shipped tree carries no violations and no
        unjustified or stale suppressions."""
        report = analyze_paths([str(SRC)], root=str(REPO_ROOT))
        assert [f"{f.location()} [{f.rule}] {f.message}" for f in report.findings] == []

    def test_static_lock_graph_shape(self):
        corpus = load_corpus([str(SRC)], root=str(REPO_ROOT))
        graph = static_lock_order(corpus)
        assert {"shard", "instance_cache"} <= set(graph["nodes"])
        # The serving stack's strongest concurrency claim: no code path
        # holds one lock while taking another, so ordering deadlocks are
        # impossible by construction.
        assert graph["edges"] == []
        assert graph["cycles"] == []

    def test_syntax_error_becomes_a_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        report = analyze_paths([str(broken)], root=str(tmp_path))
        assert [f.rule for f in report.findings] == ["syntax-error"]
        assert report.findings[0].line == 1


class TestDebugLock:
    def test_records_nested_edge(self):
        reset_observed()
        alpha, beta = DebugLock("alpha"), DebugLock("beta")
        with alpha:
            with beta:
                pass
        assert ("alpha", "beta") in observed_edges()

    def test_raises_on_order_reversal(self):
        reset_observed()
        alpha, beta = DebugLock("alpha"), DebugLock("beta")
        with alpha:
            with beta:
                pass
        with pytest.raises(LockOrderError, match="alpha"):
            with beta:
                with alpha:
                    pass

    def test_same_class_nesting_is_a_self_cycle(self):
        reset_observed()
        shard_a, shard_b = DebugLock("shard"), DebugLock("shard")
        with pytest.raises(LockOrderError, match="shard"):
            with shard_a:
                with shard_b:
                    pass

    def test_reentrant_reacquisition_records_nothing(self):
        reset_observed()
        lock = DebugLock("alpha")
        with lock:
            with lock:
                pass
        assert observed_edges() == set()

    def test_make_lock_is_env_gated(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_LOCKS", raising=False)
        assert not isinstance(make_lock("shard"), DebugLock)
        monkeypatch.setenv("REPRO_DEBUG_LOCKS", "1")
        audited = make_lock("shard")
        assert isinstance(audited, DebugLock)
        assert audited.order_class == "shard"

    def test_verify_against_static_reports_extras(self):
        reset_observed()
        outer, inner = DebugLock("outer"), DebugLock("inner")
        with outer:
            with inner:
                pass
        assert verify_against_static([]) == [("outer", "inner")]
        assert verify_against_static([("outer", "inner")]) == []


class TestStaticDynamicAgreement:
    def test_threaded_workload_observes_no_unpredicted_edge(self):
        """Hammer the sharded cache and the TileDB registry under debug
        locks; every observed acquisition-order edge must be predicted by
        the static graph (which predicts none at all)."""
        corpus = load_corpus([str(SRC)], root=str(REPO_ROOT))
        static_edges = static_lock_order(corpus)["edges"]

        with debug_locks_installed():
            cache = PlanCache(capacity=8, shards=4)
            keys = [
                ("plan", "proj", 1, 1, 1, "A", (s,), True, "db")
                for s in range(16)
            ]
            barrier = threading.Barrier(6)

            def worker(offset):
                barrier.wait()
                for i in range(40):
                    key = keys[(i + offset) % len(keys)]
                    cache.get_or_compute(key, lambda: "v")
                    cache.put(key, "v2")
                    len(cache)
                    cache.stats()
                    TileDB.shared(V100, "float32")

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            violations = verify_against_static(static_edges)
        assert violations == []


class TestCLI:
    def test_clean_run_exits_zero(self, capsys):
        assert cli_main([str(FIXTURES / "good_seeded_rng.py")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one_and_json_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "findings.json"
        code = cli_main(
            [
                str(FIXTURES / "bad_seeded_rng.py"),
                "--format",
                "json",
                "--output",
                str(out_file),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert {f["rule"] for f in payload["findings"]} == {"seeded-rng"}
        assert json.loads(out_file.read_text()) == payload

    def test_text_format_still_writes_json_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "findings.json"
        cli_main(
            [str(FIXTURES / "bad_seeded_rng.py"), "--output", str(out_file)]
        )
        capsys.readouterr()
        assert json.loads(out_file.read_text())["findings"]

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in out

    def test_rule_selection(self, capsys):
        code = cli_main(
            [str(FIXTURES / "bad_seeded_rng.py"), "--rules", "async-hygiene"]
        )
        capsys.readouterr()
        assert code == 0  # the seeded-rng findings are out of scope

    def test_unknown_rule_is_usage_error(self, capsys):
        code = cli_main(
            [str(FIXTURES / "good_seeded_rng.py"), "--rules", "bogus"]
        )
        capsys.readouterr()
        assert code == 2

    def test_lock_graph_mode(self, capsys):
        assert cli_main([str(SRC), "--lock-graph"]) == 0
        graph = json.loads(capsys.readouterr().out)
        assert graph["cycles"] == []
