"""EVM operand stack tests."""

import pytest

from repro.constants import STACK_LIMIT
from repro.errors import StackOverflow, StackUnderflow
from repro.evm.stack import Stack


def test_push_pop_lifo():
    stack = Stack()
    stack.push(1)
    stack.push(2)
    assert stack.pop() == 2
    assert stack.pop() == 1


def test_pop_empty_raises():
    with pytest.raises(StackUnderflow):
        Stack().pop()


def test_overflow():
    stack = Stack()
    for i in range(STACK_LIMIT):
        stack.push(i)
    with pytest.raises(StackOverflow):
        stack.push(0)


def test_peek():
    stack = Stack()
    stack.push(10)
    stack.push(20)
    assert stack.peek() == 20
    assert stack.peek(1) == 10
    assert len(stack) == 2


def test_peek_underflow():
    with pytest.raises(StackUnderflow):
        Stack().peek()


def test_dup():
    stack = Stack()
    stack.push(7)
    stack.push(8)
    stack.dup(2)
    assert stack.pop() == 7
    assert stack.pop() == 8


def test_dup_underflow():
    stack = Stack()
    with pytest.raises(StackUnderflow):
        stack.dup(1)


def test_swap():
    stack = Stack()
    for value in (1, 2, 3):
        stack.push(value)
    stack.swap(2)
    assert stack.items == [3, 2, 1]


def test_swap_underflow():
    stack = Stack()
    stack.push(1)
    with pytest.raises(StackUnderflow):
        stack.swap(1)
