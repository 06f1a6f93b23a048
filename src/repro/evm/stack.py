"""The EVM operand stack."""

from __future__ import annotations

from typing import List

from repro.constants import STACK_LIMIT
from repro.errors import StackOverflow, StackUnderflow


class Stack:
    """A bounded LIFO stack of 256-bit words."""

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: List[int] = []

    def __len__(self) -> int:
        return len(self.items)

    def push(self, value: int) -> None:
        """Push a word; raises :class:`StackOverflow` beyond 1024 items."""
        if len(self.items) >= STACK_LIMIT:
            raise StackOverflow(f"stack limit {STACK_LIMIT} exceeded")
        self.items.append(value)

    def pop(self) -> int:
        """Pop the top word; raises :class:`StackUnderflow` when empty."""
        if not self.items:
            raise StackUnderflow("pop from empty stack")
        return self.items.pop()

    def peek(self, depth: int = 0) -> int:
        """Read the word ``depth`` positions below the top without popping."""
        if len(self.items) <= depth:
            raise StackUnderflow(f"peek depth {depth} beyond stack")
        return self.items[-1 - depth]

    def dup(self, n: int) -> None:
        """DUPn: duplicate the n-th item (1-based from the top)."""
        if len(self.items) < n:
            raise StackUnderflow(f"DUP{n} on stack of {len(self.items)}")
        self.push(self.items[-n])

    def swap(self, n: int) -> None:
        """SWAPn: exchange the top with the (n+1)-th item."""
        if len(self.items) < n + 1:
            raise StackUnderflow(f"SWAP{n} on stack of {len(self.items)}")
        top = self.items[-1]
        self.items[-1] = self.items[-1 - n]
        self.items[-1 - n] = top
