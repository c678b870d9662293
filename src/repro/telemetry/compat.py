"""Back-compat shim: a legacy stat dict as a view over the registry.

The pre-telemetry code exposed free-form stat dicts such as
``RedPlaneEngine.stats``. Those statistics are now registry counters;
:class:`StatGroupView` keeps the old read-only dict surface over them,
so the registry stays the single source of truth.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

from repro.telemetry.metrics import Counter


class StatGroupView(Mapping):
    """Read-only integer mapping over a fixed group of counters.

    ``RedPlaneEngine.stats`` and the state-store node statistics are
    published as registry counters; this view preserves the old dict
    reading surface (``eng.stats["app_packets"]``, ``dict(eng.stats)``)
    with the integer values the old code produced.
    """

    def __init__(self, counters: Dict[str, Counter]) -> None:
        self._counters = counters

    def __getitem__(self, key: str) -> int:
        return int(self._counters[key].value)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return repr({k: int(c.value) for k, c in self._counters.items()})
