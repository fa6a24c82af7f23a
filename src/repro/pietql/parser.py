"""Recursive-descent parser for Piet-QL.

Grammar (keywords case-insensitive, semicolons optional)::

    query       := [ EXPLAIN ] geo_part [ '|' mo_part ]
    geo_part    := SELECT layer_ref (',' layer_ref)* [';']
                   FROM IDENT [';']
                   [ WHERE condition (AND condition)* [';'] ]
    layer_ref   := LAYER '.' IDENT
    condition   := prefix_cond | infix_cond
    prefix_cond := IDENT '(' layer_ref ',' layer_ref [',' sublevel] ')'
    infix_cond  := '(' layer_ref ')' IDENT
                   '(' layer_ref ',' layer_ref [',' sublevel] ')'
    sublevel    := SUBLEVEL '.' IDENT
    mo_part     := COUNT (OBJECTS | SAMPLES) FROM IDENT
                   [ THROUGH RESULT ]
                   ( DURING IDENT '=' (STRING | IDENT | NUMBER) )*
    poi_part    := (VISITS | DISTINCT VISITORS | DWELL | TOP NUMBER)
                   FROM IDENT AT layer_ref BY IDENT [ MINDWELL NUMBER ]

The infix form mirrors the paper's
``(layer.usa_cities) CONTAINS (layer.usa_cities, layer.usa_stores, …)``
syntax; the redundant repetition of the subject inside the argument list is
accepted and ignored, exactly as in the paper's example.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.errors import PietQLSyntaxError
from repro.pietql import ast
from repro.pietql.lexer import Token, TokenType, tokenize


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ---------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> PietQLSyntaxError:
        token = self._peek()
        return PietQLSyntaxError(
            f"{message} (got {token.value!r})", token.line, token.column
        )

    def _expect(self, token_type: TokenType) -> Token:
        if self._peek().type is not token_type:
            raise self._error(f"expected {token_type.value}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._peek().is_keyword(word):
            raise self._error(f"expected {word}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _skip_semicolons(self) -> None:
        while self._peek().type is TokenType.SEMICOLON:
            self._advance()

    def _ident(self) -> str:
        token = self._peek()
        # Keywords double as identifiers where unambiguous (e.g. a MOFT
        # named "result" would clash; plain idents are the common case).
        if token.type is TokenType.IDENT:
            return self._advance().value
        raise self._error("expected identifier")

    # -- grammar ------------------------------------------------------------------

    def parse_query(self) -> ast.PietQLQuery:
        explain = self._accept_keyword("EXPLAIN")
        geometric = self._geo_part()
        olap: Optional[ast.OlapQuery] = None
        moving: Optional[ast.MovingObjectQuery] = None
        poi: Optional[ast.PoiAggQuery] = None
        if self._peek().type is TokenType.PIPE:
            self._advance()
            if self._peek().is_keyword("AGGREGATE"):
                olap = self._olap_part()
                if self._peek().type is TokenType.PIPE:
                    self._advance()
                    if self._at_poi_part():
                        poi = self._poi_part()
                    else:
                        moving = self._mo_part()
            elif self._at_poi_part():
                poi = self._poi_part()
            else:
                moving = self._mo_part()
        self._skip_semicolons()
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return ast.PietQLQuery(geometric, moving, olap, explain, poi)

    def _olap_part(self) -> ast.OlapQuery:
        self._expect_keyword("AGGREGATE")
        token = self._peek()
        if token.type is TokenType.IDENT:
            function = self._advance().value.lower()
        elif token.is_keyword("COUNT"):
            self._advance()
            function = "count"
        else:
            raise self._error("expected an aggregate function")
        self._expect(TokenType.LPAREN)
        value_name = self._ident()
        self._expect(TokenType.RPAREN)
        by_level: Optional[str] = None
        if self._accept_keyword("BY"):
            by_level = self._ident()
        self._skip_semicolons()
        return ast.OlapQuery(function, value_name, by_level)

    def _geo_part(self) -> ast.GeometricQuery:
        self._expect_keyword("SELECT")
        select = [self._layer_ref()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            select.append(self._layer_ref())
        self._skip_semicolons()
        self._expect_keyword("FROM")
        schema_name = self._ident()
        self._skip_semicolons()
        conditions: List[ast.GeoCondition] = []
        if self._accept_keyword("WHERE"):
            conditions.append(self._condition())
            while self._accept_keyword("AND"):
                conditions.append(self._condition())
            self._skip_semicolons()
        return ast.GeometricQuery(tuple(select), schema_name, tuple(conditions))

    def _layer_ref(self) -> ast.LayerRef:
        self._expect_keyword("LAYER")
        self._expect(TokenType.DOT)
        return ast.LayerRef(self._ident())

    def _sublevel(self) -> str:
        self._expect_keyword("SUBLEVEL")
        self._expect(TokenType.DOT)
        return self._ident().lower()

    def _condition(self) -> ast.GeoCondition:
        if self._peek().type is TokenType.LPAREN:
            # Infix form: ( layer.a ) PRED ( layer.x, layer.y [, sublevel] ).
            self._advance()
            subject = self._layer_ref()
            self._expect(TokenType.RPAREN)
            predicate = self._ident().lower()
            left, right, sublevel = self._argument_list()
            # The paper repeats the subject as the first argument; accept
            # either order, normalizing the subject to the left operand.
            if left != subject and right == subject:
                left, right = subject, left
            elif left == subject:
                pass
            else:
                left, right = subject, left if left != subject else right
            return ast.GeoCondition(predicate, left, right, sublevel)
        predicate = self._ident().lower()
        left, right, sublevel = self._argument_list()
        return ast.GeoCondition(predicate, left, right, sublevel)

    def _argument_list(
        self,
    ) -> Tuple[ast.LayerRef, ast.LayerRef, Optional[str]]:
        self._expect(TokenType.LPAREN)
        refs: List[ast.LayerRef] = [self._layer_ref()]
        sublevel: Optional[str] = None
        while self._peek().type is TokenType.COMMA:
            self._advance()
            if self._peek().is_keyword("SUBLEVEL"):
                sublevel = self._sublevel()
                break
            refs.append(self._layer_ref())
        self._expect(TokenType.RPAREN)
        if len(refs) == 2:
            return refs[0], refs[1], sublevel
        if len(refs) == 3:
            # Paper style: the subject is repeated as the first argument
            # ("CONTAINS(layer.usa_cities, layer.usa_cities, ...)"); keep
            # the last two operands.
            return refs[1], refs[2], sublevel
        raise self._error("geometric condition needs two layer arguments")

    def _at_poi_part(self) -> bool:
        token = self._peek()
        return any(
            token.is_keyword(word)
            for word in ("VISITS", "DISTINCT", "DWELL", "TOP")
        )

    def _poi_part(self) -> ast.PoiAggQuery:
        k: Optional[int] = None
        if self._accept_keyword("VISITS"):
            measure = "visits"
        elif self._accept_keyword("DISTINCT"):
            self._expect_keyword("VISITORS")
            measure = "visitors"
        elif self._accept_keyword("DWELL"):
            measure = "dwell"
        else:
            self._expect_keyword("TOP")
            token = self._expect(TokenType.NUMBER)
            try:
                k = int(token.value)
            except ValueError:
                raise PietQLSyntaxError(
                    f"TOP expects an integer, got {token.value!r}",
                    token.line,
                    token.column,
                ) from None
            measure = "topk"
        self._expect_keyword("FROM")
        moft_name = self._ident()
        self._expect_keyword("AT")
        at = self._layer_ref()
        self._expect_keyword("BY")
        by_level = self._ident()
        min_dwell = 0.0
        if self._accept_keyword("MINDWELL"):
            token = self._expect(TokenType.NUMBER)
            min_dwell = float(token.value)
        self._skip_semicolons()
        return ast.PoiAggQuery(measure, moft_name, at, by_level, k, min_dwell)

    def _mo_part(self) -> ast.MovingObjectQuery:
        self._expect_keyword("COUNT")
        if self._accept_keyword("OBJECTS"):
            count_what = "OBJECTS"
        elif self._accept_keyword("SAMPLES"):
            count_what = "SAMPLES"
        else:
            raise self._error("expected OBJECTS or SAMPLES after COUNT")
        self._expect_keyword("FROM")
        moft_name = self._ident()
        through = False
        during: List[ast.DuringClause] = []
        while True:
            if self._accept_keyword("THROUGH"):
                self._expect_keyword("RESULT")
                through = True
                continue
            if self._accept_keyword("DURING"):
                level = self._ident()
                self._expect(TokenType.EQUALS)
                token = self._peek()
                if token.type in (TokenType.STRING, TokenType.IDENT):
                    member = self._advance().value
                elif token.type is TokenType.NUMBER:
                    member = self._advance().value
                else:
                    raise self._error("expected a member value after '='")
                during.append(ast.DuringClause(level, member))
                continue
            break
        return ast.MovingObjectQuery(
            count_what, moft_name, through, tuple(during)
        )


#: Texts whose parse :func:`parse` keeps, least recently used first out.
PARSED_TEXTS = 256


@lru_cache(maxsize=PARSED_TEXTS)
def parse(text: str) -> ast.PietQLQuery:
    """Parse Piet-QL text into a query AST.

    The text's AST is kept (every node is a frozen dataclass, so one
    object serves every caller): the same text returns the same
    :class:`~repro.pietql.ast.PietQLQuery`.  A text that does not parse
    raises on every call; errors are not kept.
    """
    return _Parser(tokenize(text)).parse_query()
