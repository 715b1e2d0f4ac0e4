"""A single-node, in-memory key-value store: one ``key -> value`` dict
applying the command table of :mod:`repro.kvstore.commands` (strings
and Redis LISTs; that module documents the semantics).

This is what the dirty table runs on wherever the run injects no
faults — nothing there reads which server held an entry, so nothing
routes it (DESIGN.md, "Metadata stores").  The distributed store is
:class:`~repro.kvstore.replicated.ReplicatedKVStore`.

The store is deliberately unsynchronised: the simulator is single-
threaded and deterministic, and the paper's consistency argument does
not rest on the KV store's concurrency behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.kvstore import commands
from repro.kvstore.commands import Value, WrongTypeError

__all__ = ["KVStore", "WrongTypeError"]


class KVStore:
    """One in-memory store instance.

    Examples
    --------
    >>> kv = KVStore()
    >>> kv.rpush("dirty", "a", "b")
    2
    >>> kv.lrange("dirty", 0, -1)
    ['a', 'b']
    >>> kv.lpop("dirty")
    'a'
    """

    def __init__(self) -> None:
        self._data: Dict[str, Value] = {}

    def _write(self, command: Callable[..., Any], key: str,
               *args: Any) -> Any:
        """Apply one mutator to the store's own value of *key* (lists
        change in place) and keep what it leaves."""
        value, reply = command(self._data.get(key), key, *args)
        if value is None:
            self._data.pop(key, None)
        else:
            self._data[key] = value
        return reply

    # ------------------------------------------------------------------
    # generic
    # ------------------------------------------------------------------
    def exists(self, key: str) -> bool:
        return commands.exists(self._data.get(key), key)

    def delete(self, key: str) -> bool:
        return self._write(commands.delete, key)

    def keys(self) -> List[str]:
        return list(self._data)

    def flushall(self) -> None:
        self._data.clear()

    def dbsize(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # strings
    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        self._write(commands.set, key, value)

    def get(self, key: str) -> Any:
        return commands.get(self._data.get(key), key)

    def incr(self, key: str, amount: int = 1) -> int:
        return self._write(commands.incr, key, amount)

    # ------------------------------------------------------------------
    # lists
    # ------------------------------------------------------------------
    def rpush(self, key: str, *values: Any) -> int:
        return self._write(commands.rpush, key, *values)

    def lpush(self, key: str, *values: Any) -> int:
        return self._write(commands.lpush, key, *values)

    def lpop(self, key: str) -> Any:
        return self._write(commands.lpop, key)

    def rpop(self, key: str) -> Any:
        return self._write(commands.rpop, key)

    def lrem(self, key: str, count: int, value: Any) -> int:
        return self._write(commands.lrem, key, count, value)

    def llen(self, key: str) -> int:
        return commands.llen(self._data.get(key), key)

    def lindex(self, key: str, index: int) -> Any:
        return commands.lindex(self._data.get(key), key, index)

    def lrange(self, key: str, start: int, stop: int) -> List[Any]:
        return commands.lrange(self._data.get(key), key, start, stop)
