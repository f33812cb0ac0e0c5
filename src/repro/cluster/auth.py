"""Shared-token authentication for every cluster-facing surface.

The single-node service only ever bound loopback, so it could defer an
auth story; a cluster cannot — the coordinator and its nodes talk over
real network sockets.  The model is deliberately small:

* a **token set** is parsed from ``--auth-token`` or the
  ``REPRO_AUTH_TOKEN`` environment variable: comma-separated entries,
  each either a bare shared secret or ``identity:secret``.  A bare
  secret authenticates as :data:`DEFAULT_IDENTITY`; the two-part form
  lets distinct callers (CI shards, teammates, node fleets) share one
  service while keeping per-client accounting honest — the
  authenticated identity overrides whatever ``client`` tag the request
  body claims;
* comparison is **constant time** (:func:`hmac.compare_digest` over the
  full presented token against every entry — the loop never exits
  early), so response timing leaks neither a near-miss nor which entry
  matched;
* **binding a non-loopback address without a token set is refused**
  (:func:`ensure_bind_allowed`), and so is *dialing* one — an operator
  cannot accidentally expose an unauthenticated engine or coordinator
  to a network.

HTTP callers present the token as ``Authorization: Bearer <token>``
(401 with a structured body and ``WWW-Authenticate`` otherwise);
protocol peers carry it in their first (``register``/``hello``) frame.
"""

from __future__ import annotations

import hmac
import ipaddress
import os

from repro.core.exceptions import ReproError

#: Identity assigned to bare (identity-less) token entries.
DEFAULT_IDENTITY = "authenticated"

#: Environment variable consulted when no ``--auth-token`` is given.
TOKEN_ENV = "REPRO_AUTH_TOKEN"


class AuthConfigError(ReproError):
    """A malformed token specification or a refused unauthenticated bind."""


class TokenSet:
    """The set of accepted tokens, mapping each to an identity.

    Args:
        entries: ``(identity, secret)`` pairs.  Empty means auth is not
            required (loopback-only deployments).
    """

    def __init__(self, entries: list[tuple[str, str]] | None = None) -> None:
        self._entries: list[tuple[str, str]] = list(entries or [])

    @classmethod
    def from_spec(cls, spec: str | None) -> "TokenSet":
        """Parse a ``--auth-token`` / ``REPRO_AUTH_TOKEN`` specification.

        Grammar: comma-separated entries, each ``secret`` or
        ``identity:secret``.  The *presented* token is always the full
        entry text — for ``ci:sekret`` a caller sends ``ci:sekret``, and
        is accounted as client ``ci``.

        Raises:
            AuthConfigError: an entry is empty, or an identity/secret
                half is empty.
        """
        entries: list[tuple[str, str]] = []
        for raw in (spec or "").split(","):
            raw = raw.strip()
            if not raw:
                continue
            identity, separator, secret = raw.partition(":")
            if separator:
                if not identity or not secret:
                    raise AuthConfigError(
                        "token entries using identity:secret need both halves"
                    )
                entries.append((identity, raw))
            else:
                entries.append((DEFAULT_IDENTITY, raw))
        if spec is not None and spec.strip() and not entries:
            raise AuthConfigError(f"no token entries in spec {spec!r}")
        return cls(entries)

    @classmethod
    def from_env(cls, cli_value: str | None) -> "TokenSet":
        """The token set from the CLI value, else :data:`TOKEN_ENV`."""
        if cli_value is not None:
            return cls.from_spec(cli_value)
        return cls.from_spec(os.environ.get(TOKEN_ENV))

    def required(self) -> bool:
        """Whether any token is configured (auth must then be presented)."""
        return bool(self._entries)

    def identify(self, presented: str | None) -> str | None:
        """The identity the presented token authenticates as, or None.

        Constant time: every configured entry is compared with
        :func:`hmac.compare_digest` regardless of earlier matches, so
        timing reveals neither a partial match nor the matching entry's
        position.  With no tokens configured, any caller (including one
        presenting nothing) is anonymous — returns None, but
        :meth:`required` is False so callers treat that as allowed.
        """
        if presented is None:
            return None
        presented_bytes = presented.encode("utf-8")
        matched: str | None = None
        for identity, token in self._entries:
            if hmac.compare_digest(token.encode("utf-8"), presented_bytes):
                matched = identity
        return matched

    def first_token(self) -> str | None:
        """The first configured token (what an outbound peer presents)."""
        if not self._entries:
            return None
        return self._entries[0][1]


def is_loopback(host: str) -> bool:
    """Whether ``host`` can only be reached from this machine.

    ``localhost`` and the empty host (AF_INET wildcard semantics differ,
    so empty is *not* loopback) are special-cased; anything else is
    parsed as an address — unparseable hostnames are conservatively
    treated as non-loopback.
    """
    if host == "localhost":
        return True
    if not host:
        return False
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def ensure_bind_allowed(host: str, tokens: TokenSet, role: str) -> None:
    """Refuse to expose an unauthenticated listener beyond loopback.

    Args:
        host: the requested bind (or dial) address.
        tokens: the configured token set.
        role: short human name for the error ("coordinator", "node", …).

    Raises:
        AuthConfigError: ``host`` is not loopback and no token is set.
    """
    if tokens.required() or is_loopback(host):
        return
    raise AuthConfigError(
        f"refusing to expose the {role} on non-loopback address {host!r} "
        f"without authentication — set --auth-token or {TOKEN_ENV}"
    )
