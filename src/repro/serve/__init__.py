"""Live serving: an asyncio TCP broker daemon + load driver.

The simulator replays contacts; this package *serves* them: a real
socket daemon speaking the :mod:`repro.pubsub.wire` binary format,
with durable subscriptions, live Prometheus metrics, and schema-v2
trace emission that keeps ``bsub analyze`` exactly in agreement with
the broker's own registry.  See ``docs/serving.md``.

Layering (transport-free core under an asyncio shell):

* :class:`ServeSpec` / :class:`LoadSpec` — frozen typed configuration
  (the :mod:`repro.api` facade re-exports these).
* :class:`SessionContext` — the typed per-connection identity record.
* :class:`BrokerCore` + :class:`Dispatcher` — socket-free protocol
  engine (fully unit-testable).
* :class:`BrokerServer` — the asyncio daemon; :class:`BrokerFleet` —
  the multi-process SO_REUSEPORT worker fleet (``ServeSpec(workers=N)``)
  of them.  Both persist durable subscriptions to a
  :class:`StateShardStore` when ``ServeSpec.state_dir`` is set.
* :func:`start_broker` / :func:`run_broker` — one lifecycle for both:
  start whichever the spec describes, serve until the duration or
  SIGTERM/SIGINT, drain, and return the same summary shape.
* :class:`LoadDriver` / :func:`run_load` — the asyncio load driver.
"""

from .broker import BrokerServer, run_broker, start_broker
from .dispatcher import BrokerCore, Dispatcher, HandleResult, ProtocolError
from .eventloop import event_loop_name, install_event_loop_policy
from .load import LoadDriver, LoadReport, run_load
from .session import BROKER_NODE_ID, SessionContext
from .spec import LoadSpec, ServeSpec
from .state_shard import StateShardStore, SubscriptionRecord
from .supervisor import BrokerFleet, sum_parity

__all__ = [
    "BROKER_NODE_ID",
    "BrokerCore",
    "BrokerFleet",
    "BrokerServer",
    "Dispatcher",
    "HandleResult",
    "LoadDriver",
    "LoadReport",
    "LoadSpec",
    "ProtocolError",
    "ServeSpec",
    "SessionContext",
    "StateShardStore",
    "SubscriptionRecord",
    "event_loop_name",
    "install_event_loop_policy",
    "run_broker",
    "run_load",
    "start_broker",
    "sum_parity",
]
