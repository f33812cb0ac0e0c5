"""CLI entry point: ``python -m repro.service``.

Examples::

    python -m repro.service --port 8080
    python -m repro.service --port 0 --port-file port.txt   # ephemeral port
    python -m repro.service --workers 2 --pool-size 8
    python -m repro.service --data-dir /var/lib/sciduction  # crash-safe

With ``--data-dir`` the service journals every job lifecycle transition
to ``<data-dir>/journal.wal`` before acknowledging it and persists
completed results under ``<data-dir>/certs``; a restart on the same
directory replays the journal — finished results are served from
history, accepted-but-unfinished jobs run again.

SIGTERM triggers a graceful drain: new submissions are refused (503),
everything already accepted finishes, a clean-shutdown marker is
journaled, then the process exits.

The bound address is printed on stdout (and written to ``--port-file``
when given) so callers that asked for an ephemeral port can discover it.

Fault injection (testing only): set ``REPRO_FAULTS`` to a plan like
``journal.write:raise:ENOSPC:3`` before launching — see
:mod:`repro.testing.faults`.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.api.config import EngineConfig
from repro.cluster.auth import TokenSet, ensure_bind_allowed
from repro.service.server import SciductionService
from repro.testing import faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the sciduction engine over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (for --port 0 callers)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for batch execution (1 = in-process)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        help="warm solver sessions kept per pool (default: engine default)",
    )
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        help="journal + certificate-store directory (enables crash safety)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission bound on queued jobs (429 past it; default unbounded)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help=(
            "bearer token(s) required on every route except /healthz; "
            "comma-separated 'secret' or 'identity:secret' entries "
            "(falls back to REPRO_AUTH_TOKEN)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    arguments = parser.parse_args(argv)

    # Arm deterministic fault injection when the environment asks for it
    # (a no-op outside the fault-injection test suites).
    faults.install_from_env()

    tokens = TokenSet.from_env(arguments.auth_token)
    ensure_bind_allowed(arguments.host, tokens, "service")

    config_kwargs: dict = {"workers": arguments.workers}
    if arguments.pool_size is not None:
        config_kwargs["pool_size"] = arguments.pool_size
    service = SciductionService(
        EngineConfig(**config_kwargs),
        host=arguments.host,
        port=arguments.port,
        quiet=arguments.quiet,
        data_dir=arguments.data_dir,
        max_pending=arguments.max_pending,
        auth=tokens,
    )
    return service.run_cli(
        f"sciduction service listening on {service.url}",
        [(arguments.port_file, service.port)],
    )


if __name__ == "__main__":
    raise SystemExit(main())
