"""Reading plan trees in tests."""

from typing import Optional

from repro.query.planner import PlanNode


def find(root: PlanNode, op: str) -> Optional[PlanNode]:
    """The first node of ``root``'s tree (pre-order) whose operator is
    ``op``, or None."""
    return next((node for node in root.walk() if node.op == op), None)
