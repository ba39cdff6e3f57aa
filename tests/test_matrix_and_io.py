"""Tests for the §5 array representation and the text I/O format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError, TriplestoreError
from repro.triplestore import MatrixStore, Triplestore, dumps, loads
from tests.diffcheck import MIXED_OBJECTS

#: Objects of every type a dump used to change, and strings of the
#: characters the text format gives a meaning.
DUMPED = st.sampled_from(MIXED_OBJECTS + (b"x", b"", "1", "True", "null", "!true", "1e5")) | st.text(
    ' ,()#"\\', max_size=5
)


class TestMatrixStore:
    def test_encode_decode_roundtrip(self):
        t = Triplestore([("a", "p", "b"), ("b", "p", "a")])
        ms = MatrixStore(t)
        mat = ms.matrix("E")
        assert ms.triples_of(mat) == t.relation("E")

    def test_matrix_is_cubic(self):
        t = Triplestore([("a", "p", "b")])
        ms = MatrixStore(t)
        assert ms.matrix("E").shape == (3, 3, 3)

    def test_dv_array_follows_sorted_objects(self):
        t = Triplestore([("a", "p", "b")], rho={"a": 5})
        ms = MatrixStore(t)
        assert ms.dv[ms.index_of("a")] == 5
        assert ms.dv[ms.index_of("b")] is None

    def test_encode_arbitrary_set(self):
        t = Triplestore([("a", "p", "b")])
        ms = MatrixStore(t)
        triples = frozenset({("b", "a", "p")})
        assert ms.triples_of(ms.encode(triples)) == triples

    def test_universal_covers_active_domain(self):
        t = Triplestore([("a", "p", "b")])
        ms = MatrixStore(t)
        assert int(ms.universal().sum()) == 27

    def test_size_guard(self):
        t = Triplestore([(f"o{i}", "p", "q") for i in range(30)])
        with pytest.raises(TriplestoreError):
            MatrixStore(t, max_objects=10)

    def test_unknown_object(self):
        ms = MatrixStore(Triplestore([("a", "p", "b")]))
        with pytest.raises(TriplestoreError):
            ms.index_of("zz")


class TestTextIO:
    def test_roundtrip_simple(self):
        t = Triplestore(
            {"E": [("a", "p", "b")], "part_of": [("p", "x", "q")]},
            rho={"a": 3},
        )
        assert loads(dumps(t)) == t

    def test_roundtrip_tuple_values(self):
        t = Triplestore(
            [("o1", "c1", "o2")],
            rho={"o1": ("Mario", "m@nes.com", 23, None, None)},
        )
        assert loads(dumps(t)) == t

    def test_quoted_strings_with_spaces(self):
        t = Triplestore([("St. Andrews", "Bus Op 1", "Edinburgh")])
        out = dumps(t)
        assert '"St. Andrews"' in out
        assert loads(out) == t

    def test_comments_and_blank_lines(self):
        text = """
        # transport data
        E a p b   # inline comment
        """
        assert loads(text).relation("E") == {("a", "p", "b")}

    def test_float_and_null_values(self):
        t = loads('@rho a 1.5\n@rho b null\nE a p b\n')
        assert t.rho("a") == 1.5
        assert t.rho("b") is None

    def test_bad_line_raises(self):
        with pytest.raises(ParseError):
            loads("E a b")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            loads('E "a p b')

    def test_a_file_written_before_escapes_still_loads(self):
        text = 'E "St. Andrews" "C:\\Program Files" x\\y\n@rho x\\y ("a b", 2)\n'
        t = loads(text)
        assert t.relation("E") == {("St. Andrews", "C:\\Program Files", "x\\y")}
        assert t.rho("x\\y") == ("a b", 2)

    def test_typed_values_are_tagged(self):
        out = dumps(Triplestore([("1", True, b"x")], rho={"1": False}))
        assert out == '@rho "1" !false\nE "1" !true !bytes:eA==\n'

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        triples=st.lists(st.tuples(DUMPED, DUMPED, DUMPED), min_size=1, max_size=8),
        rho=st.dictionaries(DUMPED, DUMPED, max_size=4),
    )
    def test_dump_round_trips_every_object_by_repr(self, triples, rho):
        store = Triplestore({"E": triples}, rho=rho)
        back = loads(dumps(store))
        assert sorted(map(repr, back.relation("E"))) == sorted(map(repr, store.relation("E")))
        assert sorted(map(repr, back.objects)) == sorted(map(repr, store.objects))
        assert {repr(o): repr(back.rho(o)) for o in back.objects} == {
            repr(o): repr(store.rho(o)) for o in store.objects
        }
