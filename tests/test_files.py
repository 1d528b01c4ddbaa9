import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import general_lines

from spacecurves.curve import validate_curve
from spacecurves.errors import ParseError
from spacecurves.files import CurveFile, corpus_names, load_corpus


def test_corpus_names_complete():
    names = corpus_names()
    base = [
        "ci-2-2",
        "conic",
        "coplanar-lines",
        "line",
        "quartic-from-skew-bilink",
        "skew-lines",
        "skew-pair-alt",
        "twisted-cubic",
    ]
    assert names == sorted(base + [n + "-dual" for n in base])


def test_every_fixture_parses_and_validates(corpus_curves):
    for name in corpus_names():
        cf = load_corpus(name)
        assert cf.base.dual == name.endswith("-dual")
        corpus_curves(name)  # raises if invalid


def test_round_trip(tmp_path):
    cf = load_corpus("twisted-cubic")
    text = cf.text()
    again = CurveFile.parse(text)
    assert again == cf
    assert again.text() == text
    path = tmp_path / "out.curve"
    cf.save(path)
    assert CurveFile.load(path) == cf


@pytest.mark.parametrize("p", [2, 101, 32003])
@settings(max_examples=5, deadline=None, database=None)
@given(data=st.data())
@seed(73)
def test_generated_curves_round_trip_through_their_text(p, data):
    # a curve's file text parses back to the same file and the same text,
    # and the parsed curve has the same degree, genus and Rao module
    C = data.draw(general_lines(primes=(p,)))
    cf = CurveFile.from_ideal(C.ideal)
    text = cf.text()
    again = CurveFile.parse(text)
    assert again == cf and again.text() == text
    D = validate_curve(again.to_ideal())
    assert D.degree_genus() == C.degree_genus()
    assert D.rao_module().dims() == C.rao_module().dims()


def test_parse_errors():
    with pytest.raises(ParseError):
        CurveFile.parse("")
    with pytest.raises(ParseError):
        CurveFile.parse("ring p=4 base=field\ngens:\nX\n")
    with pytest.raises(ParseError):  # 1009 * 1013: no factor below 1000
        CurveFile.parse("ring p=1022117 base=field\ngens:\nX\n")
    with pytest.raises(ParseError):  # a prime above 2^31 - 1
        CurveFile.parse("ring p=2147483659 base=field\ngens:\nX\n")
    with pytest.raises(ParseError):
        CurveFile.parse("ring p=7 base=field\nX\n")
    with pytest.raises(ParseError):
        CurveFile.parse("ring p=7 base=field\ngens:\n")
    with pytest.raises(ParseError):
        CurveFile.parse("ring p=7 base=field\ngens:\nX + Y^2\n")
    with pytest.raises(ParseError):
        CurveFile.parse("ring p=7 base=field\ngens:\ne*X\n")
    with pytest.raises(ParseError):
        load_corpus("does-not-exist")


def test_comments_and_blank_lines_ignored():
    cf = CurveFile.parse(
        "# fixture\nring p=7 base=field\n\ngens:\n# gen below\nX\nY\n"
    )
    assert len(cf.gens) == 2


def test_emitted_file_revalidates(tmp_path):
    cf = load_corpus("skew-lines")
    C = validate_curve(cf.to_ideal())
    out = CurveFile.from_ideal(C.ideal)
    path = tmp_path / "sk.curve"
    out.save(path)
    validate_curve(CurveFile.load(path).to_ideal())
