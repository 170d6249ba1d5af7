"""EngineOptions: validation and the Query facade integration."""

import pytest

from repro import EngineOptions, Query
from repro.core.errors import ReproError
from repro.core.model import Log

LOG = Log.from_traces({1: ["A", "B"], 2: ["A"]})


class TestEngineOptions:
    def test_defaults_are_serial_uncached_indexed(self):
        opts = EngineOptions()
        assert opts.engine is None
        assert opts.optimize is True
        assert opts.cache is None

    def test_validation(self):
        with pytest.raises(ReproError):
            EngineOptions(deadline_ms=0)
        with pytest.raises(ReproError):
            EngineOptions(max_pairs=0)

    @pytest.mark.parametrize(
        "removed", ["jobs", "backend", "strategy", "progress"]
    )
    def test_parallel_options_are_gone_not_ignored(self, removed):
        with pytest.raises(TypeError):
            EngineOptions(**{removed: None})

    def test_replace_returns_an_updated_copy(self):
        opts = EngineOptions(max_pairs=2)
        other = opts.replace(max_pairs=4, cache=True)
        assert (opts.max_pairs, other.max_pairs) == (2, 4)
        assert other.cache is True

    def test_options_are_immutable(self):
        with pytest.raises(AttributeError):
            EngineOptions().max_pairs = 3


class TestQueryWithOptions:
    def test_query_consumes_options_without_warning(self):
        query = Query("A -> B", EngineOptions(engine="naive", max_pairs=2))
        assert query.engine.name == "naive"
        assert query.options.max_pairs == 2

    def test_options_are_the_only_configuration_surface(self):
        # the pre-EngineOptions keyword arguments are gone, not shimmed
        with pytest.raises(TypeError):
            Query("A -> B", engine="naive")  # type: ignore[call-arg]

    def test_one_options_value_is_shareable_across_queries(self):
        opts = EngineOptions(max_incidents=1000)
        a = Query("A -> B", opts)
        b = Query("A ; B", opts)
        assert a.options is b.options
        assert a.engine.max_incidents == b.engine.max_incidents == 1000
