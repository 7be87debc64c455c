"""The guard expression language (paper Section 3.2).

Guards condition assignments: ``add.left = cmp.out ? a_reg.out``. They are
built from ports and a small language of boolean connectives (``!``, ``&``,
``|``) plus port comparisons (``==``, ``!=``, ``<``, ``>``, ``<=``, ``>=``).

Guards are immutable trees. Structural equality and hashing let passes
deduplicate and simplify them.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterator, List

from repro.ir.ports import PortRef

#: The comparison operators and their (unsigned, integer) semantics.
CMP_FNS: Dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}
CMP_OPS = tuple(CMP_FNS)


class Guard:
    """Abstract base class for guard expressions."""

    __slots__ = ()

    # -- combinators --------------------------------------------------
    def and_(self, other: "Guard") -> "Guard":
        """Conjunction with constant folding of the trivial cases."""
        if isinstance(self, TrueGuard):
            return other
        if isinstance(other, TrueGuard):
            return self
        return AndGuard(self, other)

    def or_(self, other: "Guard") -> "Guard":
        """Disjunction; ``true | g`` folds to ``true``."""
        if isinstance(self, TrueGuard) or isinstance(other, TrueGuard):
            return G_TRUE
        return OrGuard(self, other)

    def not_(self) -> "Guard":
        if isinstance(self, NotGuard):
            return self.inner
        return NotGuard(self)

    # -- queries -------------------------------------------------------
    def ports(self) -> Iterator[PortRef]:
        """Yield every port referenced by this guard (with repeats)."""
        raise NotImplementedError

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> "Guard":
        """Return a copy with every port rewritten through ``fn``."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of operator nodes; used by the resource estimator."""
        return 0

    def to_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"Guard({self.to_string()})"


class TrueGuard(Guard):
    """The always-true guard: an unconditional assignment."""

    __slots__ = ()

    def ports(self) -> Iterator[PortRef]:
        return iter(())

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return self

    def to_string(self) -> str:
        return "1"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TrueGuard)

    def __hash__(self) -> int:
        return hash("true-guard")


G_TRUE = TrueGuard()


class PortGuard(Guard):
    """A 1-bit port used directly as a boolean."""

    __slots__ = ("port",)

    def __init__(self, port: PortRef):
        self.port = port

    def ports(self) -> Iterator[PortRef]:
        yield self.port

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return PortGuard(fn(self.port))

    def to_string(self) -> str:
        return self.port.to_string()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PortGuard) and self.port == other.port

    def __hash__(self) -> int:
        return hash(("port-guard", self.port))


class NotGuard(Guard):
    """Boolean negation: ``!g``."""

    __slots__ = ("inner",)

    def __init__(self, inner: Guard):
        self.inner = inner

    def ports(self) -> Iterator[PortRef]:
        return self.inner.ports()

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return NotGuard(self.inner.map_ports(fn))

    def size(self) -> int:
        return 1 + self.inner.size()

    def to_string(self) -> str:
        return f"!{_atom(self.inner)}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NotGuard) and self.inner == other.inner

    def __hash__(self) -> int:
        return hash(("not-guard", self.inner))


class AndGuard(Guard):
    """Boolean conjunction: ``a & b``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Guard, right: Guard):
        self.left = left
        self.right = right

    def ports(self) -> Iterator[PortRef]:
        yield from self.left.ports()
        yield from self.right.ports()

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return AndGuard(self.left.map_ports(fn), self.right.map_ports(fn))

    def size(self) -> int:
        return 1 + self.left.size() + self.right.size()

    def to_string(self) -> str:
        return f"{_atom(self.left)} & {_atom(self.right)}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AndGuard)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("and-guard", self.left, self.right))


class OrGuard(Guard):
    """Boolean disjunction: ``a | b``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Guard, right: Guard):
        self.left = left
        self.right = right

    def ports(self) -> Iterator[PortRef]:
        yield from self.left.ports()
        yield from self.right.ports()

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return OrGuard(self.left.map_ports(fn), self.right.map_ports(fn))

    def size(self) -> int:
        return 1 + self.left.size() + self.right.size()

    def to_string(self) -> str:
        return f"{_atom(self.left)} | {_atom(self.right)}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrGuard)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("or-guard", self.left, self.right))


class CmpGuard(Guard):
    """An unsigned comparison between two ports, e.g. ``fsm.out == 2'd1``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: PortRef, right: PortRef):
        if op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def ports(self) -> Iterator[PortRef]:
        yield self.left
        yield self.right

    def map_ports(self, fn: Callable[[PortRef], PortRef]) -> Guard:
        return CmpGuard(self.op, fn(self.left), fn(self.right))

    def size(self) -> int:
        return 1

    def to_string(self) -> str:
        return f"{self.left.to_string()} {self.op} {self.right.to_string()}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CmpGuard)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("cmp-guard", self.op, self.left, self.right))


def _atom(guard: Guard) -> str:
    """Render a sub-guard, parenthesizing non-atomic children."""
    text = guard.to_string()
    if isinstance(guard, (AndGuard, OrGuard, CmpGuard)):
        return f"({text})"
    return text


def and_all(guards: List[Guard]) -> Guard:
    """Conjoin a list of guards, folding the empty list to true."""
    result: Guard = G_TRUE
    for guard in guards:
        result = result.and_(guard)
    return result


def or_all(guards: List[Guard]) -> Guard:
    """Disjoin a list of guards; the empty list folds to ``!1`` (never)."""
    if not guards:
        return NotGuard(G_TRUE)
    result = guards[0]
    for guard in guards[1:]:
        result = result.or_(guard)
    return result
