"""The rule families enforced on this repository.

``default_rules()`` is the single assembly point: the CLI, CI, and the
self-lint test all get the same set from here, so adding a rule module
and registering it below is the whole integration story (see
``docs/static-analysis.md``).
"""

from __future__ import annotations

from .asyncblock import AsyncBlockingRule
from .base import ImportMap, Rule
from .conformance import (
    CHANNEL_ADAPTERS,
    CHANNEL_PROTOCOL_NAMES,
    CHANNEL_PROTOCOLS_REL,
    STORE_ADAPTERS,
    STORE_PROTOCOL_NAMES,
    STORE_PROTOCOLS_REL,
    ProtocolConformanceRule,
)
from .layering import BarePrintRule, LayeringRule
from .simtime import SimTimePurityRule
from .taxonomy import ClosedTaxonomyRule

__all__ = [
    "AsyncBlockingRule",
    "BarePrintRule",
    "ClosedTaxonomyRule",
    "ImportMap",
    "LayeringRule",
    "ProtocolConformanceRule",
    "Rule",
    "SimTimePurityRule",
    "default_rules",
]


def default_rules() -> list[Rule]:
    """The full rule set, in reporting order."""
    return [
        SimTimePurityRule(),
        ClosedTaxonomyRule(),
        ProtocolConformanceRule(),
        ProtocolConformanceRule(
            adapters=STORE_ADAPTERS,
            protocols_rel=STORE_PROTOCOLS_REL,
            protocol_names=STORE_PROTOCOL_NAMES,
            name="store-protocol",
            description=(
                "persistence backends (MemoryStore, SqliteStore) must "
                "structurally match the JobStore protocol in store/base.py"
            ),
        ),
        ProtocolConformanceRule(
            adapters=CHANNEL_ADAPTERS,
            protocols_rel=CHANNEL_PROTOCOLS_REL,
            protocol_names=CHANNEL_PROTOCOL_NAMES,
            name="channel-protocol",
            description=(
                "worker channels (_ThreadChannel, _PipeChannel, "
                "_SocketChannel) must structurally match the WorkerChannel "
                "protocol in execution/substrate.py"
            ),
        ),
        AsyncBlockingRule(),
        LayeringRule(),
        BarePrintRule(),
    ]
