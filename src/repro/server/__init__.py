"""Network-facing serving front: asyncio HTTP server + blocking client.

The server publishes a :class:`~repro.api.session.ConvoyService` over a
minimal HTTP/1.1 JSON protocol (stdlib only); the client mirrors the
service surface so programs swap between in-process and remote serving
by changing one constructor.  See :mod:`repro.server.app` for the route
table and the wire format.

::

    from repro.api import ConvoySession
    from repro.server import ConvoyClient, serve_in_background

    service = ConvoySession.from_dataset(ds).params(m=3, k=10, eps=50).serve()
    with serve_in_background(service, dataset=ds) as handle:
        client = ConvoyClient(handle.host, handle.port)
        print(client.query.time_range(20, 35))
"""

# ``client`` must import before ``app``: repro.api pulls ConvoyClient
# from here while ``app`` (imported next) reaches back into
# repro.api submodules — the ordering keeps the cycle resolvable.
from .client import (
    NO_RETRY,
    ConvoyClient,
    ConvoyConnectionError,
    ConvoyServerError,
    RetryPolicy,
)
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    convoy_from_wire,
    convoy_to_wire,
    convoys_from_wire,
    convoys_to_wire,
)
from .app import (
    ConvoyServer,
    HttpServerHandle,
    serve_http,
    serve_in_background,
)

__all__ = [
    "NO_RETRY",
    "PROTOCOL_VERSION",
    "ConvoyClient",
    "ConvoyConnectionError",
    "ConvoyServer",
    "ConvoyServerError",
    "HttpServerHandle",
    "ProtocolError",
    "Request",
    "RetryPolicy",
    "convoy_from_wire",
    "convoy_to_wire",
    "convoys_from_wire",
    "convoys_to_wire",
    "serve_http",
    "serve_in_background",
]
