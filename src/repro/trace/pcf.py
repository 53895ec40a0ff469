"""Event dictionary — the analog of a Paraver ``.pcf`` sidecar.

The text trace stores counters and states by integer id; the dictionary maps
ids back to names.  Keeping it separate from the trace body mirrors the real
toolchain (``.prv`` + ``.pcf``) and exercises the same failure mode: a trace
whose dictionary is missing or inconsistent must fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import TraceFormatError

__all__ = ["EventDictionary"]


@dataclass
class EventDictionary:
    """Bidirectional id <-> name maps for counters and state kinds.

    The forward maps (``counter_ids``, ``state_ids``) are the data; the
    reverse maps behind :meth:`counter_name`/:meth:`state_name` and
    :attr:`counter_names_by_text` are derived from them and kept in step
    by :meth:`counter_id`, :meth:`state_id` and :meth:`from_lines`, so
    change the forward maps only through those.  :meth:`from_lines`
    refuses a block where two names share an id or a name has two ids.
    """

    counter_ids: Dict[str, int] = field(default_factory=dict)
    state_ids: Dict[str, int] = field(default_factory=dict)
    _next_counter_id: int = 42000000
    _next_state_id: int = 1

    def __post_init__(self) -> None:
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the reverse maps from the forward maps."""
        self._counter_names: Dict[int, str] = {}
        for name, cid in self.counter_ids.items():
            self._counter_names.setdefault(cid, name)
        self._state_names: Dict[int, str] = {}
        for name, sid in self.state_ids.items():
            self._state_names.setdefault(sid, name)
        #: ``{str(id): name}`` for every counter id, so a reader can look
        #: up an id's canonical text without converting it first.
        self.counter_names_by_text: Dict[str, str] = {
            str(cid): name for cid, name in self._counter_names.items()
        }

    def counter_id(self, name: str) -> int:
        """Id of counter ``name``, allocating on first use."""
        if name not in self.counter_ids:
            cid = self._next_counter_id
            self.counter_ids[name] = cid
            self._next_counter_id += 1
            self._counter_names.setdefault(cid, name)
            self.counter_names_by_text.setdefault(str(cid), name)
        return self.counter_ids[name]

    def state_id(self, name: str) -> int:
        """Id of state kind ``name``, allocating on first use."""
        if name not in self.state_ids:
            sid = self._next_state_id
            self.state_ids[name] = sid
            self._next_state_id += 1
            self._state_names.setdefault(sid, name)
        return self.state_ids[name]

    def counter_name(self, cid: int) -> str:
        """Reverse lookup of a counter id."""
        try:
            return self._counter_names[cid]
        except KeyError:
            raise TraceFormatError(f"counter id {cid} not in event dictionary") from None

    def state_name(self, sid: int) -> str:
        """Reverse lookup of a state id."""
        try:
            return self._state_names[sid]
        except KeyError:
            raise TraceFormatError(f"state id {sid} not in event dictionary") from None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_lines(self) -> List[str]:
        """Serialize as the sidecar text block."""
        lines = ["# repro event dictionary v1"]
        lines.append("[counters]")
        for name, cid in sorted(self.counter_ids.items(), key=lambda kv: kv[1]):
            lines.append(f"{cid} {name}")
        lines.append("[states]")
        for name, sid in sorted(self.state_ids.items(), key=lambda kv: kv[1]):
            lines.append(f"{sid} {name}")
        return lines

    @classmethod
    def from_lines(cls, lines: List[str]) -> "EventDictionary":
        """Parse the sidecar text block back into a dictionary.

        Raises :class:`~repro.errors.TraceFormatError` on a malformed
        line, and when one id is listed under two names or one name with
        two ids within a section; a line repeated verbatim is harmless.
        """
        dictionary = cls()
        section = ""
        owners: Dict[Tuple[str, int], str] = {}
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("[counters]", "[states]"):
                section = line
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2:
                raise TraceFormatError(f"malformed dictionary line: {raw!r}")
            ident_text, name = parts
            try:
                ident = int(ident_text)
            except ValueError:
                raise TraceFormatError(f"non-integer id in dictionary line: {raw!r}") from None
            if section == "[counters]":
                ids = dictionary.counter_ids
            elif section == "[states]":
                ids = dictionary.state_ids
            else:
                raise TraceFormatError(
                    f"dictionary entry before section header: {raw!r}"
                )
            owner = owners.setdefault((section, ident), name)
            if owner != name:
                raise TraceFormatError(
                    f"dictionary id {ident} listed as {owner!r} and {name!r}"
                )
            if ids.setdefault(name, ident) != ident:
                raise TraceFormatError(
                    f"dictionary name {name!r} listed with ids "
                    f"{ids[name]} and {ident}"
                )
            if section == "[counters]":
                dictionary._next_counter_id = max(dictionary._next_counter_id, ident + 1)
            else:
                dictionary._next_state_id = max(dictionary._next_state_id, ident + 1)
        dictionary._reindex()
        return dictionary
