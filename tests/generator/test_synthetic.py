"""Unit tests for the synthetic workload generators and distributions."""

import random

import pytest

from repro.generator.distributions import UniformInt
from repro.generator.synthetic import (
    SyntheticLogConfig,
    default_alphabet,
    generate_log,
    planted_pattern_log,
    worst_case_log,
)
from repro.core.query import Query
from tests.support.workloads import records_of


class TestDistributions:
    def test_uniform_int_range(self):
        dist = UniformInt(2, 6)
        rng = random.Random(1)
        samples = [dist.sample(rng) for __ in range(200)]
        assert min(samples) == 2 and max(samples) == 6
        with pytest.raises(ValueError):
            UniformInt(5, 2)


class TestGenerateLog:
    def test_deterministic_per_seed(self):
        config = SyntheticLogConfig(instances=5, seed=9)
        assert generate_log(config) == generate_log(config)

    def test_respects_instances_and_alphabet(self):
        config = SyntheticLogConfig(
            instances=4, alphabet=("X", "Y"), seed=0
        )
        log = generate_log(config)
        assert len(log.wids) == 4
        assert log.activities <= {"X", "Y", "START", "END"}

    def test_generated_logs_are_well_formed(self):
        for seed in range(5):
            generate_log(SyntheticLogConfig(instances=3, seed=seed)).validate()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticLogConfig(instances=0)
        with pytest.raises(ValueError):
            SyntheticLogConfig(alphabet=())

    def test_default_alphabet(self):
        assert default_alphabet(3) == ("A00", "A01", "A02")
        with pytest.raises(ValueError):
            default_alphabet(0)


class TestWorstCaseLog:
    def test_single_instance_uniform_activity(self):
        log = worst_case_log(7)
        assert log.wids == (1,)
        assert len(records_of(log, "t")) == 7
        log.validate()

    def test_m_validation(self):
        with pytest.raises(ValueError):
            worst_case_log(0)


class TestPlantedPatternLog:
    def test_plant_rate_one_guarantees_matches(self):
        log = planted_pattern_log(10, 20, ["P1", "P2", "P3"], plant_rate=1.0,
                                  seed=1)
        query = Query("P1 -> P2 -> P3")
        assert query.matching_instances(log) == tuple(range(1, 11))

    def test_plant_rate_zero_guarantees_no_matches(self):
        log = planted_pattern_log(10, 20, ["P1", "P2"], plant_rate=0.0, seed=1)
        assert not Query("P1 | P2").exists(log)

    def test_gap_one_plants_consecutively(self):
        log = planted_pattern_log(10, 20, ["P1", "P2"], plant_rate=1.0, gap=1,
                                  seed=2)
        assert Query("P1 ; P2").matching_instances(log) == tuple(range(1, 11))

    def test_larger_gap_breaks_consecutiveness(self):
        log = planted_pattern_log(10, 30, ["P1", "P2"], plant_rate=1.0, gap=4,
                                  seed=3)
        assert not Query("P1 ; P2").exists(log)
        assert Query("P1 -> P2").matching_instances(log) == tuple(range(1, 11))

    def test_validation(self):
        with pytest.raises(ValueError):
            planted_pattern_log(5, 3, ["A", "B", "C", "D"], seed=0)
        with pytest.raises(ValueError):
            planted_pattern_log(5, 10, [], seed=0)
        with pytest.raises(ValueError):
            planted_pattern_log(5, 10, ["N00"], seed=0)  # collides with noise
        with pytest.raises(ValueError):
            planted_pattern_log(5, 10, ["A"], gap=0, seed=0)
