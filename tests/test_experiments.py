"""Tests for the experiment harness, registry, CLI and the fast experiments.

The slow sweeps are exercised by the benchmark suite; here the deterministic,
fast experiments (E2, E3, E6) are run end to end and the claim machinery is
tested in isolation.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentResult,
    available_experiments,
    get_experiment,
    ratio,
    run_experiment,
)
from repro.experiments.cli import build_parser, main


class TestHarness:
    def test_ratio(self):
        assert ratio(10.0, 5.0) == 2.0
        assert ratio(0.0, 0.0) == 1.0
        assert ratio(3.0, 0.0) == float("inf")

    def test_result_table_and_claims(self):
        result = ExperimentResult("EX", "demo", columns=["a", "b"])
        result.add_row(a=1, b=2.5)
        result.claim("holds", True)
        result.claim("holds", True)
        result.claim("fails", False)
        assert not result.all_claims_hold
        assert result.claims_failed() == ["fails"]
        text = result.summary()
        assert "[PASS] holds" in text and "[FAIL] fails" in text
        assert result.to_dict()["experiment_id"] == "EX"

    def test_claim_anding(self):
        result = ExperimentResult("EX", "demo")
        result.claim("c", True)
        result.claim("c", False)
        result.claim("c", True)
        assert result.claims == {"c": False}

    def test_columns_inferred_when_missing(self):
        result = ExperimentResult("EX", "demo")
        result.add_row(b=1, a=2)
        assert result.table.columns == ["a", "b"]


class TestRegistry:
    def test_all_experiments_registered_in_numeric_order(self):
        assert available_experiments() == [f"E{i}" for i in range(1, 11)]

    def test_get_experiment_case_insensitive(self):
        spec = get_experiment("e3")
        assert spec.experiment_id == "E3"
        assert "Figure 3" in spec.paper_artifact

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_specs_have_claims_and_titles(self):
        for experiment_id in available_experiments():
            spec = get_experiment(experiment_id)
            assert spec.title
            assert spec.claim
            assert callable(spec.runner)


class TestFastExperimentsEndToEnd:
    """E2, E3, E5, E6 and E8 are deterministic and fast; their claims must
    hold.  E5 and E8 run the auction LP, randomized rounding of the
    decomposed edge-flow optimum and the BKV-style baseline end to end."""

    @pytest.mark.parametrize("experiment_id", ["E2", "E3", "E5", "E6", "E8"])
    def test_claims_hold(self, experiment_id):
        result = run_experiment(experiment_id, quick=True)
        assert result.rows, f"{experiment_id} produced no rows"
        assert result.all_claims_hold, result.claims_failed()

    def test_e3_ratio_is_exactly_four_thirds(self):
        result = run_experiment("E3", quick=True)
        ratios = [row["measured_ratio"] for row in result.rows]
        assert all(r == pytest.approx(4.0 / 3.0) for r in ratios)

    def test_e6_ratio_follows_formula(self):
        result = run_experiment("E6", quick=True)
        for row in result.rows:
            expected = 4.0 * row["p"] / (3.0 * row["p"] + 1.0)
            assert row["measured_ratio"] == pytest.approx(expected)

    def test_e2_fractions_exceed_paper_floor_and_stay_below_one(self):
        result = run_experiment("E2", quick=True)
        for row in result.rows:
            if row["algorithm"].startswith("Bounded-UFP on subdivided"):
                continue
            assert row["fraction"] < 1.0
            # The adversarial schedule achieves at least the asymptotic
            # fraction (the finite-size effects only help).
            assert row["fraction"] >= row["paper_fraction_bound"] - 1e-9


class TestProbeOracles:
    @pytest.mark.parametrize("experiment_id", ["E4", "E8", "E10"])
    def test_tables_and_reruns_print_the_same_bytes(self, experiment_id, monkeypatch):
        """Payments and audits answer their probes from the probe tables,
        since every experiment's rule accepts ``trace=``; with
        ``supports_trace`` patched to say no, they re-run the rule (in E10's
        online cell, the batch drain).  The quick run prints the same JSON
        bytes either way.  Spies show which oracle answered: the table run
        calls ``TraceReplayer.probe_selected``, and the re-run one calls
        ``_RerunOracle.probe_selected`` and builds no replayer.  E7 is left
        out: its ``replay_rounds_recomputed`` column reads 0 on re-runs."""
        from repro.core import trace
        from repro.mechanism import payments

        calls: Counter = Counter()

        def spy(cls, name: str) -> None:
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[f"{cls.__name__}.{name}"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        spy(trace._ReplayerBase, "__init__")
        spy(trace.TraceReplayer, "probe_selected")
        spy(payments._RerunOracle, "probe_selected")
        outputs = []
        for tables in (True, False):
            calls.clear()
            with monkeypatch.context() as patch:
                if not tables:
                    patch.setattr(payments, "supports_trace", lambda algorithm: False)
                result = get_experiment(experiment_id).run(quick=True, jobs=1)
            outputs.append(json.dumps(result.to_dict(), default=float))
            if tables:
                assert calls["TraceReplayer.probe_selected"] > 0
            else:
                assert calls["_RerunOracle.probe_selected"] > 0
                assert calls["_ReplayerBase.__init__"] == 0
        assert outputs[0] == outputs[1]


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E9" in out

    def test_run_single_experiment_text(self, capsys):
        code = main(["run", "E6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out
        assert "[PASS]" in out

    def test_run_single_experiment_json(self, capsys):
        code = main(["run", "E3", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment_id"] == "E3"
        assert payload["rows"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            main(["run", "E42"])

    def test_parser_flags(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E1", "--full", "--seed", "3"])
        assert args.full and args.seed == 3
