"""Logical optimization of region formulas: the time push-down.

The solver evaluates conjunctions in a ready-first order, but the MOFT
atom still enumerates every sample before temporal atoms filter them.
Queries like the paper's running example constrain the instant through
Time rollups with *constant* members (``R^{timeOfDay}(t) = "Morning"``),
and the Time dimension can invert those rollups to an instant set up
front.  :func:`push_down_time` narrows the MOFT atom's enumeration to
the allowed instants (:class:`FilteredMoft`) — classical selection
push-down, here across the Time dimension.  Semantics-preserving: the
original rollup atoms are kept (they also handle variables bound
elsewhere), only the enumeration is narrowed.

(The physical choice between a pre-aggregation store and a trajectory
scan is not made here: :func:`repro.query.evaluator.resolve_through`
matches stores to through-style queries.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from repro.mo.moft import is_member_instant, sorted_instants
from repro.query import ast
from repro.query.region import EvaluationContext, SpatioTemporalRegion


@dataclass(frozen=True)
class FilteredMoft(ast.Atom):
    """A MOFT atom restricted to an instant set (optimizer-produced).

    Membership uses the same canonical sorted-array, ulp-tolerant
    predicate as :meth:`~repro.mo.moft.MOFT.restrict_instants`
    (:func:`repro.mo.moft.is_member_instant`) — never exact float set
    membership, which silently drops instants that drifted 1 ulp
    through interpolation or granule arithmetic.
    """

    inner: ast.Moft
    instants: FrozenSet[float]

    def _terms(self) -> Tuple:
        return self.inner._terms()

    def can_enumerate(self, env) -> bool:
        return True

    @property
    def _sorted_instants(self):
        """The canonical sorted-array form of ``instants`` (cached)."""
        cached = self.__dict__.get("_sorted_instants_cache")
        if cached is None:
            cached = sorted_instants(self.instants)
            object.__setattr__(self, "_sorted_instants_cache", cached)
        return cached

    def _describe_line(self) -> str:
        # The instant set can hold thousands of floats; summarize it.
        return (
            f"FilteredMoft({self.inner._describe_line()}, "
            f"instants={len(self.instants)})"
        )

    def check(self, context, env) -> bool:
        t = ast.term_value(self.inner.t, env)
        if not is_member_instant(float(t), self._sorted_instants):
            return False
        return self.inner.check(context, env)

    def enumerate_bindings(self, context, env) -> Iterator[Dict]:
        moft = context.moft(self.inner.moft_name)
        restricted = moft.restrict_instants(set(self.instants))
        # Delegate to a Moft atom over the restricted table by swapping the
        # context's table temporarily — cheaper: inline the row loop.
        slots = self.inner._terms()
        for row in restricted.tuples():
            new_env = dict(env)
            ok = True
            for slot, value in zip(slots, row):
                if ast.is_bound(slot, new_env):
                    if ast.term_value(slot, new_env) != value:
                        ok = False
                        break
                else:
                    new_env[slot.name] = value
            if ok:
                yield new_env


def push_down_time(
    region: SpatioTemporalRegion, context: EvaluationContext
) -> SpatioTemporalRegion:
    """Return an equivalent region with temporal selections pushed down.

    Only applies when the top-level formula is a conjunction containing a
    single MOFT atom with a variable ``t`` term and at least one
    ``TimeRollup(t, level, Const)`` conjunct; otherwise the region is
    returned unchanged.
    """
    formula = region.formula
    if not isinstance(formula, ast.And):
        return region
    moft_atoms = [
        c for c in formula.children if isinstance(c, ast.Moft)
    ]
    if len(moft_atoms) != 1:
        return region
    moft_atom = moft_atoms[0]
    if not isinstance(moft_atom.t, ast.Var):
        return region
    t_name = moft_atom.t.name
    allowed: Optional[Set[float]] = None
    for child in formula.children:
        if (
            isinstance(child, ast.TimeRollup)
            and isinstance(child.t, ast.Var)
            and child.t.name == t_name
            and isinstance(child.member, ast.Const)
        ):
            instants = {
                float(t)
                for t in context.time.instants_where(
                    child.level, child.member.value
                )
            }
            allowed = instants if allowed is None else allowed & instants
        elif (
            isinstance(child, ast.TimeRollupCompare)
            and isinstance(child.t, ast.Var)
            and child.t.name == t_name
        ):
            op = ast.parse_operator(child.op)
            instants = {
                float(t)
                for t in context.time.instants
                if (
                    context.time.try_rollup(t, child.level) is not None
                    and op(context.time.try_rollup(t, child.level), child.value)
                )
            }
            allowed = instants if allowed is None else allowed & instants
    if allowed is None:
        return region
    new_children = tuple(
        FilteredMoft(child, frozenset(allowed))
        if child is moft_atom
        else child
        for child in formula.children
    )
    return SpatioTemporalRegion(
        region.output_variables, ast.And(*new_children)
    )
