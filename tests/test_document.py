import re
from pathlib import Path

import pytest

from kodaira import (
    Component,
    ConfigurationError,
    CurveConfiguration,
    DocumentError,
    IntrinsicType,
    KodairaType,
    LocalType,
    SingularPoint,
    build,
    catalog_types,
    classify,
    parse_document,
    serialize_document,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


class TestParse:
    def test_istar0_example_document(self):
        config = parse_document((EXAMPLES / "istar0.curve").read_text())
        assert config.n_components == 5
        assert classify(config) == KodairaType("IStar", 0)

    def test_nodal_example_document(self):
        config = parse_document((EXAMPLES / "nodal.curve").read_text())
        assert config.components[0].intrinsic == (IntrinsicType.NODE,)
        assert classify(config) == KodairaType("I", 1)

    def test_chain_example_document_is_not_a_fiber(self):
        config = parse_document((EXAMPLES / "chain.curve").read_text())
        assert classify(config) is None

    def test_comments_and_blank_lines_ignored(self):
        config = parse_document(
            """
            # heading comment
            [components]

            a 1 1 0   # trailing comment
            """
        )
        assert config.n_components == 1

    def test_point_section(self):
        config = parse_document(
            """
            [components]
            a 1 0 -2
            b 1 0 -2
            c 1 0 -2
            [points]
            t ordinary_triple a b c
            """
        )
        assert config.points[0].local_type is LocalType.ORDINARY_TRIPLE

    @pytest.mark.parametrize(
        "text",
        [
            "[points]\np tacnode a b\n[components]\na 1 0 -2\nb 1 0 -2\n",
            "[components]\na 1 0 -2\n[points]\np tacnode a b\n[components]\nb 1 0 -2\n",
        ],
        ids=["points-first", "components-after-points"],
    )
    def test_points_may_reference_components_defined_later(self, text):
        config = parse_document(text)
        assert [c.name for c in config.components] == ["a", "b"]
        assert classify(config) == KodairaType("III")


class TestParseErrors:
    def test_empty_document(self):
        with pytest.raises(DocumentError, match="no components"):
            parse_document("")

    def test_content_before_section(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_document("a 1 0 -2")

    def test_unknown_section(self):
        with pytest.raises(DocumentError, match="line 1.*section"):
            parse_document("[widgets]")

    def test_short_component_record_carries_line(self):
        with pytest.raises(DocumentError, match="line 3"):
            parse_document("\n[components]\na 1 0\n")

    @pytest.mark.parametrize("token", ["x", "+1", "0_0", "\u0661"])
    def test_bad_integer_carries_line(self, token):
        with pytest.raises(DocumentError, match="line 2: multiplicity must be an integer"):
            parse_document(f"[components]\na {token} 0 -2\n")

    def test_unknown_local_type(self):
        with pytest.raises(DocumentError, match="local type"):
            parse_document("[components]\na 1 0 -2\nb 1 0 -2\n[points]\np weird a b\n")

    def test_unresolved_reference_carries_line(self):
        with pytest.raises(DocumentError, match="line 5.*unknown component 'z'"):
            parse_document("[components]\na 1 0 -2\nb 1 0 -2\n[points]\np transverse a z\n")

    def test_unknown_reference_is_reported_at_its_point_after_the_whole_document(self):
        # the reference on line 4 is resolved only at the end of the document,
        # so the syntax error on line 6 is found first
        text = "[components]\na 1 0 -2\n[points]\np transverse a z\n[components]\n"
        with pytest.raises(DocumentError, match="^line 4: point 'p' references unknown component 'z'$"):
            parse_document(text + "b 1 0 -2\n")
        with pytest.raises(DocumentError, match="^line 6: multiplicity must be an integer"):
            parse_document(text + "b x 0 -2\n")

    def test_duplicate_component_name(self):
        with pytest.raises(DocumentError, match="duplicate"):
            parse_document("[components]\na 1 0 -2\na 1 0 -2\n")

    def test_duplicate_point_name_carries_both_lines(self):
        # a point may share a component's name: each section has its own names
        head = "[components]\na 1 0 -2\nb 1 0 -2\n[points]\na transverse a b\n"
        assert len(parse_document(head).points) == 1
        with pytest.raises(
            DocumentError, match=r"^line 6: duplicate point name 'a' \(first defined on line 5\)$"
        ):
            parse_document(head + "a tacnode a b\n")

    def test_arity_violation_carries_line(self):
        with pytest.raises(DocumentError, match="line 5"):
            parse_document(
                "[components]\na 1 0 -2\nb 1 0 -2\n[points]\np ordinary_triple a b\n"
            )

    def test_unknown_intrinsic(self):
        with pytest.raises(DocumentError, match="intrinsic"):
            parse_document("[components]\na 1 0 0 intrinsic=worse\n")

    def test_disconnected_is_a_validation_error(self):
        with pytest.raises(ConfigurationError, match="not connected"):
            parse_document("[components]\na 1 1 0\nb 1 1 0\n")


# what `str.splitlines` also takes for a line boundary
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    @pytest.mark.parametrize("sep", _NOT_LINE_ENDS, ids=repr)
    def test_only_newlines_end_a_line(self, sep):
        """A separator inside a comment stays in the comment, so the bad
        record on line 4 is blamed on line 4, and inside a record it
        separates tokens."""
        text = f"[components]\nc1 1 0 -2  # note{sep}c2 1 0 -2\n[points]\np transverse c1 zz\n"
        with pytest.raises(DocumentError, match="^line 4: .*unknown component 'zz'"):
            parse_document(text)
        assert parse_document(f"[components]\na 1 1 0  # a{sep}b 1 1 0\n").n_components == 1
        with pytest.raises(DocumentError, match="^line 2: unexpected token 'c2'"):
            parse_document(f"[components]\nc1 1 0 -2{sep}c2 1 0 -2\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"], ids=repr)
    def test_crlf_and_cr_end_a_line(self, end):
        lines = ["[components]", "c1 1 0 -2", "c2 1 0 -2", "[points]", "p tacnode c1 c2"]
        config = parse_document(end.join(lines) + end)
        assert classify(config) == KodairaType("III")
        with pytest.raises(DocumentError, match="^line 6: .*unknown component 'zz'"):
            parse_document(end.join(lines + ["q transverse c1 zz"]))


class TestRoundtrip:
    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_serialize_then_parse_is_identity(self, kind):
        config = build(kind)
        assert parse_document(serialize_document(config)) == config

    @staticmethod
    def _tacnode(component: str, point: str) -> CurveConfiguration:
        """Type III with the first component and the point named as given."""
        return CurveConfiguration(
            (Component(component), Component("b")),
            (SingularPoint(point, LocalType.TACNODE, (component, "b")),),
        )

    @pytest.mark.parametrize("name", ["a b", "a#b", "[x", ""])
    @pytest.mark.parametrize("record", ["component", "point"])
    def test_a_name_the_parser_reads_otherwise_is_refused(self, record, name):
        """Such a name would serialize to text that `parse_document` rejects,
        so `serialize_document` raises instead, naming the record."""
        config = self._tacnode(name, "p") if record == "component" else self._tacnode("a", name)
        with pytest.raises(ValueError, match=f"^{record} {re.escape(repr(name))}: "):
            serialize_document(config)

    @pytest.mark.parametrize("name", ["x[", "a]", "é", "intrinsic=node"])
    def test_unusual_names_that_are_one_token_round_trip(self, name):
        for config in (self._tacnode(name, "p"), self._tacnode("a", name)):
            assert parse_document(serialize_document(config)) == config

    def test_serialized_form_is_stable(self):
        text = serialize_document(build(KodairaType("III")))
        assert text == (
            "[components]\n"
            "c1 1 0 -2\n"
            "c2 1 0 -2\n"
            "[points]\n"
            "p1 tacnode c1 c2\n"
        )
