"""EngineOptions: validation and the Query facade integration."""

import pytest

from repro import EngineOptions, Query
from repro.core.errors import ReproError
from repro.core.model import Log
from repro.core.options import BACKENDS

LOG = Log.from_traces({1: ["A", "B"], 2: ["A"]})


class TestEngineOptions:
    def test_defaults_are_serial_uncached_indexed(self):
        opts = EngineOptions()
        assert opts.engine is None
        assert opts.optimize is True
        assert opts.cache is None
        assert not opts.is_parallel

    def test_jobs_or_backend_imply_parallel(self):
        assert EngineOptions(jobs=2).is_parallel
        assert EngineOptions(backend="thread").is_parallel

    def test_validation(self):
        with pytest.raises(ReproError):
            EngineOptions(backend="gpu")
        with pytest.raises(ReproError):
            EngineOptions(jobs=0)
        with pytest.raises(ReproError):
            EngineOptions(strategy="round-robin")
        for backend in BACKENDS:
            EngineOptions(backend=backend)

    def test_replace_returns_an_updated_copy(self):
        opts = EngineOptions(jobs=2)
        other = opts.replace(jobs=4, cache=True)
        assert (opts.jobs, other.jobs) == (2, 4)
        assert other.cache is True

    def test_options_are_immutable(self):
        with pytest.raises(AttributeError):
            EngineOptions().jobs = 3


class TestQueryWithOptions:
    def test_query_consumes_options_without_warning(self):
        query = Query("A -> B", EngineOptions(engine="naive", jobs=2))
        assert query.engine.name == "naive"
        assert query.options.jobs == 2
        assert query.is_parallel

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
