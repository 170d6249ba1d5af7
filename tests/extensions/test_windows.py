"""Unit tests for the windowed sequential operator."""

import random

import pytest

from repro.core.algebra import canonicalize, flatten_chain
from repro.core.eval.vectorized import VectorizedEngine
from repro.core.eval.naive import NaiveEngine
from repro.core.incident import reference_incidents
from repro.core.model import Log
from repro.core.parser import parse
from repro.core.pattern import Consecutive, act, random_pattern
from repro.extensions.windows import Within, within


class TestSemantics:
    def test_bound_one_equals_consecutive_on_atoms(self):
        log = Log.from_traces([["A", "B", "A", "X", "B"]])
        windowed = within("A", "B", 1)
        consecutive = act("A") * act("B")
        assert reference_incidents(log, windowed) == reference_incidents(
            log, consecutive
        )

    def test_larger_bounds_admit_more(self):
        log = Log.from_traces([["A", "X", "X", "B"]])
        assert not reference_incidents(log, within("A", "B", 2))
        assert reference_incidents(log, within("A", "B", 3))

    def test_unbounded_sequential_is_upper_envelope(self):
        log = Log.from_traces([["A", "X"] * 5 + ["B"]])
        seq = reference_incidents(log, parse("A -> B")).to_set()
        win = reference_incidents(log, within("A", "B", 3)).to_set()
        assert win <= seq

    def test_gap_ok(self):
        w = within("A", "B", 2)
        assert not w.gap_ok(3, 3)
        assert w.gap_ok(3, 4)
        assert w.gap_ok(3, 5)
        assert not w.gap_ok(3, 6)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            within("A", "B", 0)


class TestEngineAgreement:
    def test_engines_and_oracle_agree_randomized(self, rng):
        from repro.core.algebra import random_logs

        logs = random_logs("AB", cases=6, seed=51)
        naive, indexed = NaiveEngine(), VectorizedEngine()
        for __ in range(30):
            log = rng.choice(logs)
            pattern = Within(
                random_pattern(rng, "AB", max_depth=2),
                random_pattern(rng, "AB", max_depth=2),
                rng.randint(1, 4),
            )
            expected = reference_incidents(log, pattern)
            assert naive.evaluate(log, pattern) == expected, str(pattern)
            assert indexed.evaluate(log, pattern) == expected, str(pattern)

    def test_exists_never_uses_unsound_greedy_path(self):
        # within requires late binding: the first A is too early
        log = Log.from_traces([["A", "X", "X", "X", "A", "B"]])
        assert VectorizedEngine().exists(log, within("A", "B", 1))


class TestAlgebraIntegration:
    def test_chain_flattening_keeps_bounds(self):
        pattern = parse("A ->[2] B -> C")
        items, gaps = flatten_chain(pattern)
        assert isinstance(gaps[0], Within) and gaps[0].bound == 2
        assert type(gaps[1]).__name__ == "Sequential"

    def test_canonicalize_preserves_window_semantics(self):
        pattern = parse("A ->[2] (B ->[3] C)")
        canonical = canonicalize(pattern)
        log = Log.from_traces([["A", "B", "X", "C"]])
        assert reference_incidents(log, canonical) == reference_incidents(
            log, pattern
        )

    def test_with_children_preserves_bound(self):
        pattern = within("A", "B", 7)
        rebuilt = pattern.with_children(act("X"), act("Y"))
        assert isinstance(rebuilt, Within) and rebuilt.bound == 7

    def test_optimizer_keeps_window_semantics(self):
        from repro.core.optimizer import Optimizer

        log = Log.from_traces([["A", "B", "C", "A", "B", "X", "C"]] * 3)
        pattern = parse("A ->[1] (B ->[1] C)")
        plan = Optimizer.for_log(log).optimize(pattern)
        assert reference_incidents(log, plan.optimized) == (
            reference_incidents(log, pattern)
        )

    def test_windows_with_different_bounds_do_not_factor(self):
        from repro.core.optimizer.rules import factor_choice

        pattern = parse("(A ->[1] B) | (A ->[2] B)")
        assert factor_choice(pattern) is None

    def test_windows_with_same_bounds_factor(self):
        from repro.core.optimizer.rules import factor_choice

        rewritten = factor_choice(parse("(A ->[2] B) | (A ->[2] C)"))
        assert rewritten == parse("A ->[2] (B | C)")


class TestTextRendering:
    def test_token_includes_bound(self):
        assert str(within("A", "B", 9)) == "A ->[9] B"

    def test_parse_roundtrip(self):
        pattern = parse("(A ->[4] B) ; C")
        assert parse(str(pattern)) == pattern
