"""Multi-node sciduction: the coordinator and its node agents.

One :class:`~repro.api.engine.SciductionEngine` process cannot serve the
north-star traffic no matter how warm its solver pool is.  This package
shards the engine across machines while preserving the property every
other layer is built on: **cluster results are byte-identical to a
sequential run**.

Topology (two process roles, all stdlib sockets + JSON):

* the **coordinator** (:mod:`repro.cluster.coordinator`,
  ``python -m repro.cluster.coordinator``) reuses the PR-5 HTTP front
  end, journal, certificate store and admission control unchanged, but
  swaps the engine for a :class:`~repro.cluster.coordinator.ClusterEngine`
  that scatters each batch to registered nodes by
  ``ProblemSpec.shape_key()`` under deterministic rendezvous hashing
  (:mod:`repro.cluster.hashring`) and gathers wire-form results back.
  Assignments and reshards are journaled through the PR-7 WAL, so a
  node death mid-batch is recovered by re-sharding the dead node's
  unfinished jobs onto the survivors — in submission order, preserving
  the per-shape history that byte-parity rests on.  It also hosts the
  cluster's one shared check memo, keyed by the :mod:`repro.smt.wire`
  structural digests, so cross-*node* check-memo hits work exactly like
  the cross-worker hits of a multi-process engine;
* a **node agent** (:mod:`repro.cluster.node`,
  ``python -m repro.cluster.node``) wraps one persistent engine behind
  the length-prefixed JSON frame protocol (:mod:`repro.cluster.protocol`)
  with heartbeats, graceful drain, and automatic re-registration.  Its
  one :class:`~repro.api.memo.CheckMemoClient` keeps a node-local store
  in front of the coordinator's memo
  (:class:`~repro.cluster.memoclient.RemoteMemoStore`, a second
  connection to the same endpoint), and degrades to silent local-only
  operation (counted in statistics) while that memo is unreachable,
  re-arming when it returns.

Auth (:mod:`repro.cluster.auth`): a shared token (``--auth-token`` /
``REPRO_AUTH_TOKEN``, constant-time compare) is required before
either role binds — or dials — a non-loopback address; HTTP callers
present it as a bearer token, protocol peers in their first frame.
"""

from repro.cluster.auth import TokenSet, ensure_bind_allowed
from repro.cluster.hashring import rendezvous_owner, rendezvous_rank
from repro.cluster.protocol import (
    FramedSocket,
    ProtocolError,
    TornFrameError,
    encode_frame,
    read_frame,
)

__all__ = [
    "FramedSocket",
    "ProtocolError",
    "TokenSet",
    "TornFrameError",
    "encode_frame",
    "ensure_bind_allowed",
    "read_frame",
    "rendezvous_owner",
    "rendezvous_rank",
]
