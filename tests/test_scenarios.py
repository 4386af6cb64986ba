"""Tests of the scenario campaign subsystem (``repro.scenarios``).

Covers the spec layer (normalization, stable seeds, content hashes), the
result store (durability protocol, inf/nan-safe persistence, resume), the
runner (determinism across ``jobs``, skip/invalidate semantics) and the
CLI — including the ISSUE-5 acceptance scenario: the pinned demo campaign
(4 topology families × 3 capacity regimes × offline+online) runs to
completion, and resuming after deleting the final results line
recomputes exactly the missing cell with a store hash bit-identical to an
uninterrupted run at ``--jobs 1`` and ``--jobs 4``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import scenarios
from repro.exceptions import InvalidInstanceError
from repro.lp import solve_fractional_ufp
from repro.scenarios.cli import main as scenarios_main
from repro.scenarios.regimes import build_cell_instance, resolve_base_capacity
from repro.scenarios.runner import run_cell
from repro.scenarios.store import ResultStore
from repro.utils.jsonl import repair_trailing


def _tiny_suite(**overrides):
    suite = {
        "name": "tiny",
        "seed": 5,
        "topologies": [{"name": "g", "family": "grid", "rows": 3, "cols": 3}],
        "regimes": [{"name": "r", "capacity": 6.0, "num_requests": 8}],
        "modes": [{"name": "off", "kind": "offline", "bound": "none"}],
    }
    suite.update(overrides)
    return suite


# ---------------------------------------------------------------------- #
# Specs
# ---------------------------------------------------------------------- #
class TestSpecs:
    def test_enumerate_cells_is_the_cross_product(self):
        cells = scenarios.enumerate_cells(scenarios.get_suite("demo"))
        assert len(cells) == 4 * 3 * 2
        assert cells[0].key == "clos/adversarial-tiny/offline"
        assert len({c.key for c in cells}) == len(cells)

    def test_unknown_suite_keys_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown suite keys"):
            scenarios.normalize_suite(_tiny_suite(topologys=[]))

    def test_missing_section_rejected(self):
        spec = _tiny_suite()
        del spec["modes"]
        with pytest.raises(InvalidInstanceError, match="missing"):
            scenarios.normalize_suite(spec)

    def test_duplicate_names_rejected(self):
        spec = _tiny_suite(
            regimes=[{"name": "r", "capacity": 4.0}, {"name": "r", "capacity": 8.0}]
        )
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            scenarios.normalize_suite(spec)

    def test_cell_seeds_stable_under_reordering(self):
        """Adding a topology must not change existing cells' seeds."""
        base = scenarios.enumerate_cells(_tiny_suite())
        extended = scenarios.enumerate_cells(
            _tiny_suite(
                topologies=[
                    {"name": "w", "family": "waxman", "num_vertices": 8},
                    {"name": "g", "family": "grid", "rows": 3, "cols": 3},
                ]
            )
        )
        by_key = {c.key: c for c in extended}
        assert by_key["g/r/off"].topology_seed == base[0].topology_seed
        assert by_key["g/r/off"].workload_seed == base[0].workload_seed

    def test_cell_hash_tracks_spec_changes(self):
        a = scenarios.enumerate_cells(_tiny_suite())[0]
        b = scenarios.enumerate_cells(
            _tiny_suite(regimes=[{"name": "r", "capacity": 7.0, "num_requests": 8}])
        )[0]
        assert a.key == b.key
        assert scenarios.cell_hash(a) != scenarios.cell_hash(b)

    def test_modes_share_workload_topologies_share_structure(self):
        """Offline and online modes of one (topology, regime) pair must see
        the same instance; regimes sweep capacity over the same structure."""
        suite = _tiny_suite(
            regimes=[
                {"name": "lo", "capacity": 4.0, "num_requests": 8},
                {"name": "hi", "capacity": 9.0, "num_requests": 8},
            ],
            modes=[
                {"name": "off", "kind": "offline", "bound": "none"},
                {"name": "on", "kind": "online"},
            ],
        )
        cells = {c.key: c for c in scenarios.enumerate_cells(suite)}
        inst_off, _, _ = build_cell_instance(cells["g/lo/off"])
        inst_on, _, _ = build_cell_instance(cells["g/lo/on"])
        assert [r.type for r in inst_off.requests] == [r.type for r in inst_on.requests]
        inst_hi, _, _ = build_cell_instance(cells["g/hi/off"])
        assert [(e.tail, e.head) for e in inst_off.graph.edges()] == [
            (e.tail, e.head) for e in inst_hi.graph.edges()
        ]
        assert inst_off.graph.capacities[0] != inst_hi.graph.capacities[0]


class TestRegimes:
    def test_resolve_capacity_forms(self):
        assert resolve_base_capacity({"capacity": 5.0}, 0) == 5.0
        assert resolve_base_capacity({"capacity": {"value": 3.0}}, 0) == 3.0
        scaled = resolve_base_capacity(
            {"capacity": {"scale_log_m": 2.0, "min": 1.0}}, 100
        )
        assert scaled == pytest.approx(2.0 * math.log(100))
        # The floor kicks in on tiny graphs.
        assert resolve_base_capacity(
            {"capacity": {"scale_log_m": 0.1, "min": 2.0}}, 10
        ) == 2.0

    def test_bad_capacity_specs(self):
        with pytest.raises(InvalidInstanceError):
            resolve_base_capacity({"capacity": {"bogus": 1}}, 10)
        with pytest.raises(InvalidInstanceError):
            resolve_base_capacity({"capacity": -1.0}, 10)

    def test_terminal_pools_respected(self):
        """ISP-style families place request endpoints on leaves/hosts."""
        suite = _tiny_suite(
            topologies=[{"name": "ft", "family": "fat_tree", "k": 4}]
        )
        cell = scenarios.enumerate_cells(suite)[0]
        instance, topology, _ = build_cell_instance(cell)
        terminals = set(topology.terminals)
        for request in instance.requests:
            assert request.source in terminals
            assert request.target in terminals


# ---------------------------------------------------------------------- #
# Store
# ---------------------------------------------------------------------- #
class TestResultStore:
    def test_append_and_read_back(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("a/b/c", "h1", {"value": 1.5, "ratio": math.inf})
        assert store.completed() == {"a/b/c": "h1"}
        record = store.records()["a/b/c"]
        assert record["value"] == 1.5
        assert record["ratio"] == math.inf

    def test_store_files_are_strict_json(self, tmp_path):
        """No Infinity/NaN tokens ever reach disk (ISSUE-5 satellite)."""
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("k", "h", {"ratio": math.inf, "x": math.nan, "lo": -math.inf})
        for path in (store.results_path, store.suite_path):
            text = path.read_text()
            assert "Infinity" not in text and "NaN" not in text
            for line in text.strip().splitlines():
                json.loads(line, parse_constant=pytest.fail)  # strict parse
        record = store.records()["k"]
        assert record["ratio"] == math.inf
        assert record["lo"] == -math.inf
        assert math.isnan(record["x"])

    def test_orphan_record_is_ignored(self, tmp_path):
        """A record line without its ``sha`` is invisible — a line is
        committed only by its own checksum."""
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("good", "h", {"v": 1})
        with store.results_path.open("a") as handle:
            handle.write('{"key": "torn", "cell": "h2", "record": {"v": 2}}\n')
        assert set(store.records()) == {"good"}
        assert set(store.completed()) == {"good"}

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("good", "h", {"v": 1})
        with store.results_path.open("a") as handle:
            handle.write('{"key": "half')  # no newline, cut mid-write
        assert store.completed() == {"good": "h"}

    def test_mismatched_suite_rejected_fresh_wipes(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("k", "h", {"v": 1})
        other = _tiny_suite(name="other")
        with pytest.raises(InvalidInstanceError, match="different suite"):
            store.initialize(other)
        store.initialize(other, fresh=True)
        assert store.completed() == {}

    def test_edited_suite_same_name_updates_spec(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        edited = _tiny_suite(seed=99)
        store.initialize(edited)
        assert store.load_suite()["seed"] == 99


class TestStoreDurability:
    """ISSUE-8 satellite: commits survive *power loss*, not just process
    death.  fsync on the file makes the bytes durable, but a freshly
    created file can vanish with its (unsynced) directory entry — so
    creating a store file must fsync the parent directory too."""

    def test_creating_store_files_fsyncs_their_directory(self, tmp_path, monkeypatch):
        import os
        import stat

        real_fsync = os.fsync
        synced_dir_inodes = set()

        def spying_fsync(fd):
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):
                synced_dir_inodes.add(status.st_ino)
            return real_fsync(fd)

        monkeypatch.setattr("os.fsync", spying_fsync)
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("k", "h", {"v": 1})
        assert (tmp_path / "s").stat().st_ino in synced_dir_inodes

    def test_commit_then_reopen_sees_identical_content(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("k", "h", {"v": 1.5})
        committed_hash = store.content_hash()
        reopened = ResultStore(tmp_path / "s")
        assert reopened.completed() == {"k": "h"}
        assert reopened.records()["k"]["v"] == 1.5
        assert reopened.content_hash() == committed_hash


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
class TestRunner:
    def test_records_are_deterministic_and_timing_free(self):
        cell = scenarios.enumerate_cells(_tiny_suite())[0]
        a = run_cell(cell).rows[0]
        b = run_cell(cell).rows[0]
        assert a == b  # bit-identical, no wall-clock columns

    def test_smoke_campaign_in_memory(self):
        result = scenarios.run_campaign(scenarios.get_suite("smoke"))
        assert result.num_cells == 8
        assert result.all_cells_ok
        assert not result.skipped

    def test_resume_skips_everything_on_complete_store(self, tmp_path):
        suite = _tiny_suite()
        store = ResultStore(tmp_path / "s")
        first = scenarios.run_campaign(suite, store=store)
        assert len(first.computed) == 1
        second = scenarios.run_campaign(suite, store=store)
        assert not second.computed
        assert len(second.skipped) == 1
        assert second.records == first.records

    def test_spec_change_invalidates_only_affected_cells(self, tmp_path):
        """Editing one regime recomputes only its cells; editing the suite
        name is rejected (a different campaign must not share a store)."""
        suite = _tiny_suite(
            regimes=[
                {"name": "a", "capacity": 5.0, "num_requests": 8},
                {"name": "b", "capacity": 6.0, "num_requests": 8},
            ]
        )
        store = ResultStore(tmp_path / "s")
        first = scenarios.run_campaign(suite, store=store)
        assert len(first.computed) == 2

        suite["regimes"][1]["capacity"] = 7.0
        resumed = scenarios.run_campaign(suite, store=store)
        assert resumed.computed == ["g/b/off"]
        assert resumed.skipped == ["g/a/off"]
        assert resumed.invalidated == ["g/b/off"]
        assert resumed.records["g/b/off"]["B"] == 7.0

        with pytest.raises(InvalidInstanceError, match="different suite"):
            scenarios.run_campaign(_tiny_suite(name="other"), store=store)

    def test_damaged_results_file_degrades_to_recompute(self, tmp_path):
        """A committed cell whose results line is lost must be recomputed
        on resume, not crash the campaign."""
        suite = _tiny_suite()
        store = ResultStore(tmp_path / "s")
        first = scenarios.run_campaign(suite, store=store)
        store.results_path.write_text("")  # damage: every line gone
        resumed = scenarios.run_campaign(suite, store=store)
        assert resumed.computed == ["g/r/off"]
        assert resumed.records == first.records

    def test_renamed_cells_do_not_linger_in_reports(self, tmp_path):
        """After renaming a regime, the old cell's record stays in the store
        but is excluded from the current suite's records and hash."""
        suite = _tiny_suite()
        store = ResultStore(tmp_path / "s")
        scenarios.run_campaign(suite, store=store)
        suite["regimes"][0]["name"] = "renamed"
        resumed = scenarios.run_campaign(suite, store=store)
        assert list(resumed.records) == ["g/renamed/off"]
        assert set(store.records(resumed.records)) == {"g/renamed/off"}
        # A fresh store running the edited suite hashes identically.
        fresh = ResultStore(tmp_path / "fresh")
        scenarios.run_campaign(suite, store=fresh)
        assert store.content_hash(resumed.records) == fresh.content_hash()

    def test_repeated_cells_are_bounded_by_the_repetitions_lp(self):
        """A ``repeated`` cell runs Bounded-UFP with repetitions, so its
        bound is the Figure 5 relaxation; the Figure 1 one (each request at
        most once) sits far below the large-capacity cells' values."""
        demo = scenarios.get_suite("demo")
        suite = {
            "name": "repeated-demo",
            "seed": demo["seed"],
            "topologies": demo["topologies"],
            "regimes": demo["regimes"],
            "modes": [{"name": "repeat", "kind": "repeated"}],
        }
        result = scenarios.run_campaign(suite, jobs=1)
        assert result.num_cells == 12
        assert result.all_cells_ok, [
            key for key, record in result.records.items() if not record["claims_ok"]
        ]
        cell = next(
            c for c in scenarios.enumerate_cells(suite) if c.key == "wan/large-cap-mix/repeat"
        )
        record = result.records[cell.key]
        instance = build_cell_instance(cell)[0]
        assert record["bound"] == solve_fractional_ufp(instance, repetitions=True).objective
        assert record["value"] > solve_fractional_ufp(instance).objective

    def test_payments_cell_hash_ignores_payment_workers(self, tmp_path, monkeypatch):
        """``REPRO_JOBS`` fans a cell's payment bisections out to workers;
        the record (replay counters included) and the store hash must not
        notice."""
        suite = _tiny_suite(
            topologies=[{"name": "g", "family": "grid", "rows": 3, "cols": 4}],
            regimes=[
                {
                    "name": "r",
                    "capacity": {"scale_log_m": 2.0, "min": 1.0},
                    "num_requests": 60,
                    "demand_range": [0.4, 1.0],
                }
            ],
            modes=[
                {
                    "name": "pay",
                    "kind": "offline",
                    "epsilon": "auto",
                    "bound": "none",
                    "payments": True,
                }
            ],
        )
        hashes, records = [], []
        for workers in (None, "2"):
            if workers is None:
                monkeypatch.delenv("REPRO_JOBS", raising=False)
            else:
                monkeypatch.setenv("REPRO_JOBS", workers)
            store = ResultStore(tmp_path / f"jobs-{workers}")
            result = scenarios.run_campaign(suite, store=store, jobs=1)
            hashes.append(store.content_hash())
            records.append(result.records["g/r/pay"])
        assert records[0]["revenue"] > 0.0
        assert records[0]["replay_probes"] > 0.0
        assert records[0] == records[1]
        assert hashes[0] == hashes[1]

    def test_failed_claims_surface_in_record(self):
        # An online cell comparing against offline cannot fail its claims on
        # a sane instance, so check the plumbing instead: claims_ok present.
        result = scenarios.run_campaign(_tiny_suite())
        record = next(iter(result.records.values()))
        assert record["claims_ok"] is True


@pytest.mark.slow
class TestDemoCampaignAcceptance:
    """The ISSUE-5 acceptance scenario on the pinned demo campaign."""

    def test_demo_run_kill_resume_hash_identity(self, tmp_path):
        suite = scenarios.get_suite("demo")
        cells = scenarios.enumerate_cells(suite)
        assert len({c.topology["name"] for c in cells}) >= 4
        assert len({c.regime["name"] for c in cells}) >= 3
        assert {c.mode["kind"] for c in cells} == {"offline", "online"}

        store1 = ResultStore(tmp_path / "jobs1")
        result1 = scenarios.run_campaign(suite, store=store1, jobs=1)
        assert result1.all_cells_ok and len(result1.computed) == len(cells)
        reference_hash = store1.content_hash()

        store4 = ResultStore(tmp_path / "jobs4")
        result4 = scenarios.run_campaign(suite, store=store4, jobs=4)
        assert store4.content_hash() == reference_hash
        assert result4.records == result1.records

        # Kill: drop the final results line; resume must recompute
        # exactly that cell and restore the exact store hash, at jobs=1
        # and jobs=4.
        for store, jobs in ((store1, 1), (store4, 4)):
            lines = store.results_path.read_text().strip().splitlines()
            dropped = json.loads(lines[-1])["key"]
            store.results_path.write_text("\n".join(lines[:-1]) + "\n")
            resumed = scenarios.run_campaign(suite, store=store, jobs=jobs)
            assert resumed.computed == [dropped]
            assert len(resumed.skipped) == len(cells) - 1
            assert store.content_hash() == reference_hash

    def test_demo_exercises_nonfinite_persistence(self, tmp_path):
        """The adversarial-tiny regime yields inf ratios that must
        round-trip through the store."""
        store = ResultStore(tmp_path / "s")
        scenarios.run_campaign(scenarios.get_suite("demo"), store=store, jobs=1)
        records = store.records()
        assert any(
            record.get("ratio") == math.inf for record in records.values()
        ), "expected at least one inf ratio in the demo campaign"
        assert "Infinity" not in store.results_path.read_text()


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCLI:
    def test_list(self, capsys):
        assert scenarios_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "fat_tree" in out

    def test_run_report_resume_roundtrip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert scenarios_main(["run", "smoke", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "8 total, 8 computed, 0 skipped" in out
        assert "store hash:" in out

        assert scenarios_main(["resume", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "8 total, 0 computed, 8 skipped" in out

        assert scenarios_main(["report", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "Scenario campaign: smoke" in out

    def test_run_suite_from_json_file(self, tmp_path, capsys):
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_tiny_suite()))
        assert scenarios_main(["run", str(spec_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "tiny"
        assert payload["records"]["g/r/off"]["claims_ok"] is True

    def test_unknown_suite_errors(self):
        with pytest.raises(SystemExit):
            scenarios_main(["run", "no-such-suite"])

    def test_missing_suite_file_errors_cleanly(self):
        with pytest.raises(SystemExit, match="not found"):
            scenarios_main(["run", "/nonexistent/suite.json"])

    def test_resume_json_is_parseable_with_pending_cells(self, tmp_path, capsys):
        """resume --json must not interleave progress lines with the JSON."""
        store_dir = str(tmp_path / "store")
        assert scenarios_main(["run", "smoke", "--store", store_dir, "--json"]) == 0
        capsys.readouterr()
        results = ResultStore(store_dir).results_path
        lines = results.read_text().strip().splitlines()
        results.write_text("\n".join(lines[:-1]) + "\n")
        assert scenarios_main(["resume", "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["computed"]) == 1

    def test_seed_override_changes_workload(self, tmp_path, capsys):
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_tiny_suite()))
        assert scenarios_main(["run", str(spec_path), "--json", "--seed", "6"]) == 0
        a = json.loads(capsys.readouterr().out)["records"]["g/r/off"]
        assert scenarios_main(["run", str(spec_path), "--json", "--seed", "7"]) == 0
        b = json.loads(capsys.readouterr().out)["records"]["g/r/off"]
        assert a != b


# ---------------------------------------------------------------------- #
# Store torn-append repair (ISSUE-6 satellite)
# ---------------------------------------------------------------------- #
class TestTornAppendRepair:
    def test_append_onto_torn_tail_repairs_first(self, tmp_path):
        """A kill mid-write leaves an unterminated line; the next append
        must truncate it instead of merging the new record into the
        fragment (which would silently lose a committed cell)."""
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("k1", "h1", {"v": 1})
        with store.results_path.open("a") as handle:
            handle.write('{"key": "torn", "cell": "hx", "record"')
        store.append("k3", "h3", {"v": 3})
        assert set(store.records()) == {"k1", "k3"}
        assert store.completed() == {"k1": "h1", "k3": "h3"}
        # Every surviving line is complete, parseable JSON.
        text = store.results_path.read_text()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            json.loads(line)

    def test_repair_is_noop_on_clean_and_missing_files(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("k", "h", {"v": 1})
        before = store.results_path.read_text()
        assert repair_trailing(store.results_path) is False
        assert store.results_path.read_text() == before
        assert repair_trailing(tmp_path / "missing.jsonl") is False
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert repair_trailing(empty) is False

    def test_repair_of_fragment_only_file(self, tmp_path):
        path = tmp_path / "frag.jsonl"
        path.write_text('{"key": "torn"')  # no complete line at all
        assert repair_trailing(path) is True
        assert path.read_text() == ""

    def test_torn_tail_then_append_preserves_store_hash(self, tmp_path):
        """Resume over a repaired store must hash identically to an
        uninterrupted run — the torn cell is just recomputed."""
        suite = _tiny_suite()
        clean = ResultStore(tmp_path / "clean")
        scenarios.run_campaign(suite, store=clean)
        reference = clean.content_hash()

        torn = ResultStore(tmp_path / "torn")
        scenarios.run_campaign(suite, store=torn)
        # Tear off the (only) results line mid-write.
        text = torn.results_path.read_text().strip()
        torn.results_path.write_text(text[: len(text) // 2])
        resumed = scenarios.run_campaign(suite, store=torn)
        assert resumed.computed == ["g/r/off"]
        assert torn.content_hash() == reference


# ---------------------------------------------------------------------- #
# One self-checking line per cell
# ---------------------------------------------------------------------- #
def _three_cell_suite():
    return _tiny_suite(
        regimes=[
            {"name": "a", "capacity": 5.0, "num_requests": 8},
            {"name": "b", "capacity": 6.0, "num_requests": 8},
            {"name": "c", "capacity": 7.0, "num_requests": 8},
        ]
    )


class TestOneLineCommit:
    def test_append_is_one_durable_line(self, tmp_path, monkeypatch):
        import repro.scenarios.store as store_module

        calls = []
        real_append_line = store_module.append_line

        def counting_append_line(path, line):
            calls.append(path.name)
            real_append_line(path, line)

        monkeypatch.setattr(store_module, "append_line", counting_append_line)
        store = ResultStore(tmp_path / "s")
        store.initialize(_tiny_suite())
        store.append("k", "h", {"v": 1.5})
        assert calls == ["results.jsonl"]
        assert sorted(path.name for path in store.root.iterdir()) == [
            "results.jsonl",
            "suite.json",
        ]

    def test_parseable_line_torn_before_its_newline_is_recomputed(self, tmp_path):
        """A crash that tears only the newline of a cell's line leaves a
        parseable fragment.  The next append's repair erases it, so resume
        must not count it: the cell is recomputed and the store hash equals
        the uninterrupted run's."""
        suite = _three_cell_suite()
        clean = ResultStore(tmp_path / "clean")
        scenarios.run_campaign(suite, store=clean, jobs=1)
        reference = clean.content_hash()

        torn = ResultStore(tmp_path / "torn")
        scenarios.run_campaign(suite, store=torn, jobs=1)
        for path in sorted(torn.root.glob("*.jsonl")):
            kept = path.read_text().splitlines()[:2]
            path.write_text(kept[0] + "\n" + kept[1])
        resumed = scenarios.run_campaign(suite, store=torn, jobs=1)
        assert resumed.skipped == ["g/a/off"]
        assert resumed.computed == ["g/b/off", "g/c/off"]
        assert torn.content_hash() == reference

    def test_line_with_mismatched_sha_is_not_committed(self, tmp_path):
        suite = _tiny_suite()
        store = ResultStore(tmp_path / "s")
        first = scenarios.run_campaign(suite, store=store)
        reference = store.content_hash()

        (line,) = store.results_path.read_text().splitlines()
        entry = json.loads(line)
        entry["record"]["B"] = 99.0  # payload edited, sha left as written
        store.results_path.write_text(json.dumps(entry) + "\n")
        assert store.completed() == {}
        assert store.records() == {}

        resumed = scenarios.run_campaign(suite, store=store)
        assert resumed.computed == ["g/r/off"]
        assert resumed.records == first.records
        assert store.content_hash() == reference

    def test_store_of_the_two_file_layout_is_refused(self, tmp_path):
        suite = _tiny_suite()
        store = ResultStore(tmp_path / "s")
        scenarios.run_campaign(suite, store=store)
        old_log = store.root / "manifest.jsonl"
        old_log.write_text('{"cell":"h","key":"g/r/off","record_sha":"0"}\n')
        for read in (store.completed, store.records, store.content_hash):
            with pytest.raises(InvalidInstanceError, match="manifest.jsonl"):
                read()
        with pytest.raises(InvalidInstanceError, match="manifest.jsonl"):
            scenarios.run_campaign(suite, store=store)

        resumed = scenarios.run_campaign(suite, store=store, fresh=True)
        assert not old_log.exists()
        assert resumed.computed == ["g/r/off"]


# ---------------------------------------------------------------------- #
# Crash-tolerant campaign runner (ISSUE-6 tentpole)
# ---------------------------------------------------------------------- #
def _chaos_tiny_suite(inject="exception", **mode_extra):
    bad = {
        "name": "bad",
        "kind": "offline",
        "bound": "none",
        "inject_failure": inject,
        **mode_extra,
    }
    good = {"name": "off", "kind": "offline", "bound": "none"}
    return _tiny_suite(modes=[good, bad])


class TestQuarantine:
    def test_failing_cell_is_quarantined_and_campaign_completes(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        result = scenarios.run_campaign(
            _chaos_tiny_suite(), store=store, retries=1
        )
        assert result.failed == ["g/r/bad"]
        assert not result.all_cells_ok
        assert "1 FAILED (quarantined)" in result.summary_line()
        record = result.records["g/r/bad"]
        assert record["failed"] is True
        assert record["claims_ok"] is False
        assert record["error_type"] == "RuntimeError"
        assert record["attempts"] == 2  # initial try + one retry
        assert "injected failure" in record["error"]
        # The healthy cell is unaffected.
        assert result.records["g/r/off"]["claims_ok"] is True
        # The quarantine record is durably committed.
        assert store.records()["g/r/bad"]["failed"] is True

    def test_quarantined_cell_is_retried_on_resume(self, tmp_path):
        suite = _chaos_tiny_suite()
        store = ResultStore(tmp_path / "s")
        scenarios.run_campaign(suite, store=store)
        resumed = scenarios.run_campaign(suite, store=store)
        # The healthy cell is skipped; the quarantined one is never
        # skipped — resume retries it instead of trusting the failure.
        assert resumed.skipped == ["g/r/off"]
        assert resumed.computed == ["g/r/bad"]
        assert resumed.failed == ["g/r/bad"]

    def test_quarantine_records_hash_deterministically(self, tmp_path):
        suite = _chaos_tiny_suite()
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        scenarios.run_campaign(suite, store=a, retries=1)
        scenarios.run_campaign(suite, store=b, retries=1)
        assert a.content_hash() == b.content_hash()

    def test_worker_crash_quarantined_under_jobs(self, tmp_path):
        """A cell that SIGKILLs its worker process is captured as a
        WorkerCrash; the other cells' results survive the poisoned pool."""
        store = ResultStore(tmp_path / "s")
        result = scenarios.run_campaign(
            _chaos_tiny_suite(inject="sigkill"), store=store, jobs=2
        )
        assert result.failed == ["g/r/bad"]
        assert result.records["g/r/bad"]["error_type"] == "WorkerCrash"
        assert result.records["g/r/off"]["claims_ok"] is True

    def test_cell_timeout_quarantines_hung_cell(self):
        result = scenarios.run_campaign(
            _chaos_tiny_suite(inject="timeout"), cell_timeout=0.2
        )
        assert result.failed == ["g/r/bad"]
        assert result.records["g/r/bad"]["error_type"] == "CellTimeoutError"
        assert result.records["g/r/off"]["claims_ok"] is True


# ---------------------------------------------------------------------- #
# Fault regimes in suites (ISSUE-6 tentpole)
# ---------------------------------------------------------------------- #
def _online_mode(**extra):
    return {
        "name": "stream",
        "kind": "online",
        "epsilon": "auto",
        "arrivals": "bursty",
        "burst_size": 4,
        **extra,
    }


class TestFaultModes:
    def test_chaos_suite_is_builtin(self):
        assert "chaos" in scenarios.available_suites()
        suite = scenarios.get_suite("chaos")
        mode_names = {mode["name"] for mode in suite["modes"]}
        assert {"stream", "failures", "churn", "jam", "everything"} <= mode_names

    def test_zero_intensity_faults_record_identical_to_fault_free(self):
        """A mode carrying ``faults: {}`` must produce a record dict-equal
        to the fault-free mode (different cell hash, same physics) — the
        differential guarantee the whole fault layer is built on."""
        plain = scenarios.run_campaign(_tiny_suite(modes=[_online_mode()]))
        faulted = scenarios.run_campaign(
            _tiny_suite(modes=[_online_mode(faults={})])
        )
        a = plain.records["g/r/stream"]
        b = faulted.records["g/r/stream"]
        assert a == b
        assert "fault_events" not in b

    def test_fault_mode_emits_degradation_columns(self):
        result = scenarios.run_campaign(
            _tiny_suite(
                modes=[
                    _online_mode(
                        faults={"edge_failure_rate": 1.5, "failure_duration": 2}
                    )
                ]
            )
        )
        record = result.records["g/r/stream"]
        assert record["claims_ok"] is True
        assert record["fault_events"] > 0

    def test_chaos_suite_store_hash_jobs_invariant(self, tmp_path):
        suite = scenarios.get_suite("chaos")
        s1 = ResultStore(tmp_path / "j1")
        s4 = ResultStore(tmp_path / "j4")
        r1 = scenarios.run_campaign(suite, store=s1, jobs=1)
        r4 = scenarios.run_campaign(suite, store=s4, jobs=4)
        assert r1.all_cells_ok and not r1.failed
        assert r1.records == r4.records
        assert s1.content_hash() == s4.content_hash()
        # The violent modes actually exercise the degradation paths.
        revocations = sum(
            record.get("fault_revocations", 0) for record in r1.records.values()
        )
        jammed = sum(
            record.get("fault_jam_arrived", 0) for record in r1.records.values()
        )
        assert revocations > 0 and jammed > 0


# ---------------------------------------------------------------------- #
# CLI robustness flags + failure-aware exit codes (ISSUE-6 satellite)
# ---------------------------------------------------------------------- #
class TestCLIRobustness:
    def test_failed_cells_make_run_and_resume_exit_nonzero(
        self, tmp_path, capsys
    ):
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_chaos_tiny_suite()))
        store_dir = str(tmp_path / "store")
        assert (
            scenarios_main(
                ["run", str(spec_path), "--store", store_dir, "--retries", "1"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "1 FAILED (quarantined)" in out
        assert scenarios_main(["resume", "--store", store_dir]) == 1
        out = capsys.readouterr().out
        assert "1 FAILED (quarantined)" in out

    def test_failed_cells_surface_in_json_payload(self, tmp_path, capsys):
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_chaos_tiny_suite()))
        assert scenarios_main(["run", str(spec_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == ["g/r/bad"]
        assert payload["records"]["g/r/bad"]["failed"] is True

    def test_clean_run_with_robustness_flags_exits_zero(self, tmp_path, capsys):
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_tiny_suite()))
        assert (
            scenarios_main(
                [
                    "run",
                    str(spec_path),
                    "--json",
                    "--retries",
                    "2",
                    "--retry-backoff",
                    "0.01",
                    "--cell-timeout",
                    "300",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == []

    def test_cell_timeout_flag_quarantines(self, tmp_path, capsys):
        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_chaos_tiny_suite(inject="timeout")))
        assert (
            scenarios_main(
                ["run", str(spec_path), "--json", "--cell-timeout", "0.2"]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"]["g/r/bad"]["error_type"] == "CellTimeoutError"
