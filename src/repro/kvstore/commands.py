"""What the Redis commands mean — written once, applied by two stores.

The paper (§IV) drives the dirty table with RPUSH / LRANGE / LPOP on
Redis LISTs.  Only the data types the reproduction needs are modelled —
strings and lists — but their edge cases follow Redis precisely (the
test suite checks them against the documented semantics on one store
and holds the other to the same replies with a generated differential):

* reading a missing key answers ``None`` / empty, never raises;
* a list command against a string key (and vice versa) raises
  :class:`WrongTypeError`, mirroring Redis ``WRONGTYPE``;
* a list that becomes empty is deleted (``EXISTS`` turns false);
* ``LRANGE`` accepts negative and out-of-range indices with Redis'
  clamping rules.

A key's value is ``None`` (missing), ``("string", v)`` or
``("list", [...])``.  Each **mutator** maps ``(value, key, *args)`` to
``(new value, reply)``; each **query** maps it to the reply.  A mutator
may change the list it was handed in place — that is what keeps RPUSH
amortised O(1) on :class:`~repro.kvstore.store.KVStore`, which hands
over its own list; :class:`~repro.kvstore.replicated.ReplicatedKVStore`
hands over a copy, so replicas never alias.  Nothing here knows where a
value is kept, how many copies there are, or who is asking.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

#: The commands are reached as attributes (``commands.rpush``); ``set``
#: must never land in somebody's namespace through a star-import.
__all__ = ["Value", "WrongTypeError", "require_values"]

Value = Optional[Tuple[str, Any]]


class WrongTypeError(TypeError):
    """Operation against a key holding the wrong kind of value
    (Redis ``WRONGTYPE``)."""


def _list_of(value: Value, key: str) -> Optional[List[Any]]:
    """The list *value* holds; ``None`` for a missing key."""
    if value is None:
        return None
    kind, held = value
    if kind != "list":
        raise WrongTypeError(f"key {key!r} holds a string")
    return held


def require_values(command: str, values: Sequence[Any]) -> None:
    """RPUSH / LPUSH take at least one value.  An executor whose writes
    can fail for other reasons checks this first, so a malformed call
    is never reported as a failed write."""
    if not values:
        raise ValueError(f"{command} requires at least one value")


# ----------------------------------------------------------------------
# mutators: (value, key, *args) -> (new value, reply)
# ----------------------------------------------------------------------
def set(value: Value, key: str, new: Any) -> Tuple[Value, None]:
    """SET — overwrites any existing value, including a list (Redis SET
    replaces keys of any type)."""
    return ("string", new), None


def incr(value: Value, key: str, amount: int = 1) -> Tuple[Value, int]:
    """INCRBY — initialises a missing key to 0 first."""
    current = get(value, key)
    if current is None:
        current = 0
    if not isinstance(current, int):
        raise WrongTypeError(f"key {key!r} is not an integer")
    return ("string", current + amount), current + amount


def delete(value: Value, key: str) -> Tuple[None, bool]:
    """DEL — removes a key of any type; replies whether it existed."""
    return None, value is not None


def rpush(value: Value, key: str, *values: Any) -> Tuple[Value, int]:
    """RPUSH — append; replies the new length.  This is how dirty
    entries enter the table (§IV)."""
    require_values("rpush", values)
    items = _list_of(value, key)
    if items is None:
        value = ("list", items := [])
    items.extend(values)
    return value, len(items)


def lpush(value: Value, key: str, *values: Any) -> Tuple[Value, int]:
    """LPUSH — prepend (values land in reverse order, as in Redis)."""
    require_values("lpush", values)
    items = _list_of(value, key)
    if items is None:
        value = ("list", items := [])
    items[:0] = values[::-1]
    return value, len(items)


def lpop(value: Value, key: str) -> Tuple[Value, Any]:
    """LPOP — pop from the head; ``None`` on a missing key.  Used to
    consume a dirty entry once it is fully re-integrated.  A per-OID
    dirty list holds a handful of entries, so ``pop(0)`` is cheap."""
    items = _list_of(value, key)
    if not items:
        return value, None
    head = items.pop(0)
    return (value if items else None), head


def rpop(value: Value, key: str) -> Tuple[Value, Any]:
    items = _list_of(value, key)
    if not items:
        return value, None
    tail = items.pop()
    return (value if items else None), tail


def lrem(value: Value, key: str, count: int, target: Any
         ) -> Tuple[Value, int]:
    """LREM — remove up to *count* occurrences of *target* (all when
    count == 0; from the tail when count < 0)."""
    items = _list_of(value, key)
    if not items:
        return value, 0
    limit = abs(count) or len(items)
    removed = 0
    kept = []
    for item in (items if count >= 0 else reversed(items)):
        if item == target and removed < limit:
            removed += 1
        else:
            kept.append(item)
    if count < 0:
        kept.reverse()
    return (("list", kept) if kept else None), removed


# ----------------------------------------------------------------------
# queries: (value, key, *args) -> reply
# ----------------------------------------------------------------------
def get(value: Value, key: str) -> Any:
    if value is None:
        return None
    kind, held = value
    if kind != "string":
        raise WrongTypeError(f"key {key!r} holds a list")
    return held


def exists(value: Value, key: str) -> bool:
    return value is not None


def llen(value: Value, key: str) -> int:
    return len(_list_of(value, key) or ())


def lindex(value: Value, key: str, index: int) -> Any:
    items = _list_of(value, key) or ()
    try:
        return items[index]
    except IndexError:
        return None


def lrange(value: Value, key: str, start: int, stop: int) -> List[Any]:
    """LRANGE with Redis index semantics: *stop* is inclusive, negative
    indices count from the tail, and out-of-range bounds clamp rather
    than raise.  This is the non-destructive fetch used while the
    cluster is not yet at full power (§IV).  The reply is a new list."""
    items = _list_of(value, key)
    if not items:
        return []
    n = len(items)
    if start < 0:
        start = max(n + start, 0)
    if stop < 0:
        stop = n + stop
    stop = min(stop, n - 1)
    if start > stop or start >= n:
        return []
    return items[start:stop + 1]
