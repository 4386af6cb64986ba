"""The shortest-path tree hook.

Every shortest-path tree the pricing engine and
:func:`repro.graphs.shortest_path.single_source_dijkstra` build goes through
:meth:`Kernel.dijkstra` of the one :class:`Kernel` that :func:`get_kernel`
returns.  The method only calls
:func:`~repro.graphs.shortest_path.shortest_path_tree` (C trees on large
graphs, the Python loop on small ones; see that module for the size rule
and why both give the same bits).  It stays a method of its own because it
is the one place a profiler can wrap to see every tree the program
computes: the repository benchmark's ``kernels.dijkstra`` span wraps it.
"""

from __future__ import annotations

from repro.graphs.shortest_path import shortest_path_tree

__all__ = ["Kernel", "get_kernel"]


class Kernel:
    """Owner of the tree hook (see the module docstring)."""

    def dijkstra(self, graph, weights, source, targets=None, get_weights_list=None):
        """One shortest-path tree as a
        :class:`~repro.graphs.shortest_path.CompactTree`; the arguments are
        those of :func:`~repro.graphs.shortest_path.shortest_path_tree`."""
        return shortest_path_tree(graph, weights, source, targets, get_weights_list)


_KERNEL = Kernel()


def get_kernel() -> Kernel:
    """The one :class:`Kernel`."""
    return _KERNEL
