"""Tests for the constraint AST: terms, connectives, atoms."""

import pytest

from repro.errors import QueryError
from repro.query import ast
from repro.query.ast import And, Compare, Const, Exists, MemberValue, Not, Or, Var


class TestTerms:
    def test_term_value(self):
        env = {"x": 42}
        assert ast.term_value(Var("x"), env) == 42
        assert ast.term_value(Const(7), env) == 7

    def test_unbound_raises(self):
        with pytest.raises(QueryError):
            ast.term_value(Var("y"), {})

    def test_is_bound(self):
        assert ast.is_bound(Const(1), {})
        assert ast.is_bound(Var("x"), {"x": 1})
        assert not ast.is_bound(Var("x"), {})

    def test_operator_parsing(self):
        assert ast.parse_operator("<")(1, 2)
        assert ast.parse_operator(">=")(2, 2)
        assert ast.parse_operator("=")(3, 3)
        assert ast.parse_operator("!=")(3, 4)
        with pytest.raises(QueryError):
            ast.parse_operator("~~")


class TestConnectives:
    ATOM_A = Compare(Var("a"), "=", Const(1))
    ATOM_B = Compare(Var("b"), "=", Const(2))

    def test_and_flattens(self):
        composite = And(And(self.ATOM_A, self.ATOM_B), self.ATOM_A)
        assert len(composite.children) == 3

    def test_and_needs_children(self):
        with pytest.raises(QueryError):
            And()

    def test_or_needs_children(self):
        with pytest.raises(QueryError):
            Or()

    def test_free_variables(self):
        f = And(self.ATOM_A, self.ATOM_B)
        assert f.free_variables() == {"a", "b"}
        assert Not(self.ATOM_A).free_variables() == {"a"}

    def test_exists_binds(self):
        f = Exists(Var("a"), ast.ExplicitDomain([1, 2]), And(self.ATOM_A, self.ATOM_B))
        assert f.free_variables() == {"b"}

    def test_operator_sugar(self):
        f = self.ATOM_A & self.ATOM_B
        assert isinstance(f, And)
        g = self.ATOM_A | self.ATOM_B
        assert isinstance(g, Or)
        n = ~self.ATOM_A
        assert isinstance(n, Not)

    def test_member_value_free_vars(self):
        expr = MemberValue("neighborhood", Var("n"), "income")
        f = Compare(expr, "<", Const(1500))
        assert f.free_variables() == {"n"}

    def test_member_value_repr(self):
        expr = MemberValue("neighborhood", Var("n"), "income")
        assert "income" in repr(expr)


class TestDomains:
    def test_explicit_domain(self):
        domain = ast.ExplicitDomain([3, 1, 2])
        assert set(domain.values(None)) == {1, 2, 3}


class TestMoftCheck:
    """``Moft.check`` answers from the object's time-sorted rows: the
    same as membership in the table's row set, without materializing it."""

    @pytest.fixture(scope="class")
    def ctx(self):
        from repro.synth.paperdata import figure1_instance

        return figure1_instance().context()

    ATOM = ast.Moft(Var("oid"), Var("t"), Var("x"), Var("y"), "FMbus")

    def _check(self, ctx, oid, t, x, y):
        return self.ATOM.check(ctx, {"oid": oid, "t": t, "x": x, "y": y})

    def test_matches_set_membership(self, ctx):
        rows = set(ctx.moft("FMbus").tuples())
        probes = set(rows)
        for oid, t, x, y in rows:
            probes.update(
                {
                    (oid, t, x + 0.5, y),  # other x
                    (oid, t, x, y - 0.5),  # other y
                    (oid, t + 0.5, x, y),  # off-sample instant
                    ("O99", t, x, y),  # unknown object
                }
            )
        for probe in probes:
            assert self._check(ctx, *probe) is (probe in rows), probe

    def test_integer_terms_coerce(self, ctx):
        oid, t, x, y = next(iter(ctx.moft("FMbus").tuples()))
        assert t == int(t)  # Figure 1 samples at whole instants
        assert self._check(ctx, oid, int(t), x, y)

    def test_never_materializes_the_table(self, ctx, monkeypatch):
        from repro.mo.moft import MOFT

        rows = list(ctx.moft("FMbus").tuples())

        def spy(self):
            raise AssertionError("Moft.check called MOFT.tuples")

        monkeypatch.setattr(MOFT, "tuples", spy)
        for row in rows:
            assert self._check(ctx, *row)
        assert not self._check(ctx, "O99", *rows[0][1:])


class TestTrajectoryAtoms:
    """The three trajectory atoms share one ``TrajectoryAtom`` base."""

    CLASSES = (
        ast.TrajectoryIntersects,
        ast.TrajectoryWithinDistance,
        ast.PossiblyThrough,
    )

    @pytest.mark.parametrize("cls", CLASSES)
    def test_only_the_relation_is_their_own(self, cls):
        assert issubclass(cls, ast.TrajectoryAtom)
        own = set(vars(cls))
        assert "_holds" in own
        assert not own & {"check", "enumerate_bindings", "can_enumerate", "_terms"}

    @pytest.mark.parametrize(
        "atom",
        [
            ast.TrajectoryIntersects(Var("o"), "Ln", "polygon", Var("g")),
            ast.TrajectoryWithinDistance(Var("o"), "Ls", "node", Var("g"), 1.0),
            ast.PossiblyThrough(Var("o"), "Ln", "polygon", Var("g"), 2.0),
        ],
    )
    def test_enumeration_needs_oid(self, atom):
        assert atom.free_variables() == {"o", "g"}
        assert not atom.can_enumerate({})
        assert atom.can_enumerate({"o": "O1"})
        with pytest.raises(QueryError, match=f"{type(atom).__name__} needs oid bound"):
            list(atom.enumerate_bindings(None, {}))
