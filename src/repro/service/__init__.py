"""``repro.service`` — the long-running HTTP query daemon.

The paper frames incident-pattern querying as an online capability next
to the workflow engine, not a batch script; this package is that shape:
a dependency-free (stdlib-only) daemon serving ``POST /v1/query`` and
friends over a catalog of named live :class:`~repro.logstore.LogStore`
objects, with admission control, per-request option clamping, governor
kills as structured JSON errors, and a journaled lifecycle per request.

Layering (each module usable on its own):

- :mod:`repro.service.config` — :class:`ServiceConfig` ceilings + clamping
- :mod:`repro.service.errors` — the wire error contract
- :mod:`repro.service.schemas` — request validation
- :mod:`repro.service.catalog` — named stores (:class:`StoreCatalog`)
- :mod:`repro.service.admission` — bounded pool + shed queue
- :mod:`repro.service.inflight` — live-query registry + cooperative kill
- :mod:`repro.service.handlers` — :class:`QueryService` (transport-free)
- :mod:`repro.service.dashboard` — the zero-dependency HTML admin UI
- :mod:`repro.service.server` — the stdlib HTTP adapter + :func:`serve`

The admin plane (``/v1/admin/*``, ``/dashboard``) surfaces the live
windowed telemetry of :mod:`repro.obs.live`; see ``docs/SERVICE.md``
for the endpoint reference and curl examples.
"""

from repro.service.admission import AdmissionController
from repro.service.catalog import StoreCatalog
from repro.service.config import ServiceConfig
from repro.service.errors import ServiceError, map_exception
from repro.service.handlers import QueryService, ServiceResponse
from repro.service.inflight import InflightEntry, InflightRegistry
from repro.service.server import ServiceServer, serve

__all__ = [
    "AdmissionController",
    "InflightEntry",
    "InflightRegistry",
    "QueryService",
    "ServiceConfig",
    "ServiceError",
    "ServiceResponse",
    "ServiceServer",
    "StoreCatalog",
    "map_exception",
    "serve",
]
