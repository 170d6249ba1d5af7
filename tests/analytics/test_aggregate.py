"""Unit tests for the incident aggregate (count_by / attr_of)."""

import pytest

from repro.analytics.aggregate import attr_of, count_by
from repro.core.query import Query


class TestGrouping:
    def test_count_by(self, figure3_log):
        incidents = Query("PayTreatment").run(figure3_log)
        counts = count_by(incidents, lambda o: o.wid)
        assert counts == {1: 2, 2: 1}


class TestAttrOf:
    def test_reads_attribute_from_matching_record(self, figure3_log):
        incidents = Query("GetRefer").run(figure3_log)
        hospitals = count_by(incidents, attr_of("GetRefer", "hospital"))
        assert hospitals == {"Public Hospital": 2, "People Hospital": 1}

    def test_scope_in(self, figure3_log):
        incidents = Query("CheckIn").run(figure3_log)
        balances = count_by(
            incidents, attr_of("CheckIn", "balance", scope="in")
        )
        assert balances == {1000: 1, 2000: 1}

    def test_missing_activity_or_attribute_yields_none(self, figure3_log):
        incidents = Query("GetRefer").run(figure3_log)
        keys = {attr_of("Ghost", "hospital")(o) for o in incidents}
        assert keys == {None}
        keys = {attr_of("GetRefer", "ghost")(o) for o in incidents}
        assert keys == {None}

    def test_scope_validation(self):
        with pytest.raises(ValueError):
            attr_of("A", "x", scope="sideways")

    def test_paper_motivating_aggregate(self, clinic_log):
        """'How many referrals with balance >= 5000 per hospital?'"""
        incidents = Query("GetRefer[out.balance >= 5000]").run(clinic_log)
        per_hospital = count_by(incidents, attr_of("GetRefer", "hospital"))
        assert sum(per_hospital.values()) == len(incidents)
        assert None not in per_hospital

