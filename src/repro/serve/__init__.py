"""The ``repro`` experiment service: HTTP serving layer over the broker.

``python -m repro serve`` stands up a stdlib
:class:`http.server.ThreadingHTTPServer` whose handlers answer spec,
scenario, and figure queries **cache-first** through one shared
:class:`~repro.experiments.broker.ExperimentBroker`: a repeated query is one
backend lookup, a novel query is admitted (with in-flight dedup, so a
thundering herd of identical requests costs one simulation), and per-round
series stream back as newline-delimited JSON.

``python -m repro query`` is the matching CLI client
(:class:`~repro.serve.client.ServeClient`, stdlib ``urllib`` only).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.server": [
            "DEFAULT_HOST",
            "DEFAULT_PORT",
            "ExperimentServer",
            "ServeConfig",
            "make_server",
            "run_serve_smoke",
            "spec_from_request",
        ],
        "repro.serve.client": ["ServeClient"],
    },
)
