"""Minimal reverse-mode tape.

A ``Var`` wraps a numpy array and records how it was produced; calling
``backward()`` on a scalar Var walks the graph in reverse topological order
and accumulates gradients into every Var built with ``requires_grad=True``.
Operation implementations live in :mod:`bidrn.ops`.

One backward per graph: the walk consumes the tape. Once a non-leaf node's
rule has run, the node drops its gradient, closure and parents and is spent,
so a step's intermediates are freed while the backward still runs. A second
backward that reaches a spent node raises ``ContractError``; to combine two
losses, add them and call ``backward()`` once. Leaves (every ``Parameter``
and any ``Var(..., requires_grad=True)``) keep their gradients for the
optimizer.

A Var none of whose parents requires a gradient keeps no parents and no
backward closure, since no backward can reach it; the same holds for every
Var built inside :class:`no_tape`. Such an intermediate is freed as soon as
the op that reads it returns. ``layers.Network.forward`` enters ``no_tape``
for an eval forward whose input needs no gradient; ops still pass their
parents, and only ``Var.__init__`` drops them.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_RECORDING = True


class no_tape:
    """Context manager under which new Vars record no tape; the previous
    state is restored on exit, also when the body raises."""

    def __enter__(self):
        global _RECORDING
        self._prev = _RECORDING
        _RECORDING = False
        return self

    def __exit__(self, *exc):
        global _RECORDING
        _RECORDING = self._prev
        return False


class Var:
    """Array-valued node on the tape. ``_parents is None`` marks a node that
    a backward has spent."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, op="leaf"):
        parents = tuple(parents)
        if not _RECORDING or not any(p.requires_grad for p in parents):
            parents, backward = (), None
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad) or bool(parents)
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulates d(self)/d(leaf) into every reachable leaf's ``grad``
        and spends the graph: each non-leaf node drops its gradient, closure
        and parents once its rule has run. A walk that reaches a node spent
        by an earlier backward raises ContractError before any rule runs."""
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ContractError("graph already consumed by an earlier backward(); "
                                    "run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = node._backward = node._parents = None

    def detach(self):
        return Var(self.data, requires_grad=False)

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.data.shape}, grad={self.requires_grad})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


class Parameter(Var):
    """Leaf Var that the optimizer updates in place; its data is float32."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True, op="param")
