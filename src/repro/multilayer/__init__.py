"""Multi-layer (tree-structured) network extension (paper section 7).

"A more complex and general distributed streams scenario is the
tree-structured hierarchy of the communication network.  By running the
CluDistream between each internal node and its children, we can compute
the Gaussian mixture model over the union of streams on the leaf nodes."

:mod:`repro.multilayer.tree` is the node semantics of exactly that:
leaf nodes run :class:`~repro.core.remote.RemoteSite`, internal nodes
(:class:`InternalNode`) run a :class:`~repro.core.coordinator.Coordinator`
over their children and forward their summary upward only when their
locally-observed global mixture changes.  The tree that connects them is
:class:`repro.cluster.tree.TransportTree`.
"""

from repro.multilayer.tree import InternalNode, mixture_change

__all__ = ["InternalNode", "mixture_change"]
