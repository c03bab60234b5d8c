"""The report renderer: json.dumps(indent=2, sort_keys=True)'s bytes, without its recursion."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quatgenus.runner import RunConfig, render_report, run_script_data

DATA = Path(__file__).parent / "data"

WORKED_PUSHING = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, -3]],
    "steps": [{"kind": "pushing", "classes": [-2]}],
}

DEEP_WINDOW_100 = {
    "base": "rationals",
    "algebras": [[-1, -1], [-1, -3], [-2, -5], [-1, -7]],
    "steps": [{"kind": "alternate", "rounds": 2, "max_rounds": 4, "window": 100}],
}

ABSTRACT_LINKING = {
    "base": {
        "abstract": {
            "symbols": ["a1", "b1", "a2", "b2"],
            "assumptions": [
                {"id": "norms-1", "anisotropic": {"norm_of": 0}},
                {"id": "norms-2", "anisotropic": {"norm_of": 1}},
                {"id": "link-12", "anisotropic": {"albert_of": [0, 1]}},
            ],
        }
    },
    "algebras": [{"symbols": ["a1", "b1"]}, {"symbols": ["a2", "b2"]}],
    "steps": [{"kind": "linking"}],
}


def _outcome(render, value):
    """The rendered text, or the type and message of the error it raised."""
    try:
        return render(value)
    except (TypeError, ValueError) as error:
        return type(error), str(error)


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _reference_digest(value) -> str:
    """SHA-256 of _reference(value), streamed so no list holds every token."""
    digest = hashlib.sha256()
    for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(value):
        digest.update(chunk.encode())
    digest.update(b"\n")
    return digest.hexdigest()


special = st.sampled_from('"\\{}[],: \n\t\r\x00\x1f\x7fé€𝔸')
text = st.text(st.one_of(special, st.characters()), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e300, -1e-300]),
    text,
)
mixed_keys = st.one_of(text, st.integers(), st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        # mixed key types: json.dumps cannot sort them, and both must raise alike
        st.dictionaries(mixed_keys, children, max_size=3),
    ),
    max_leaves=30,
)


@given(values)
@settings(max_examples=300)
@example([[], {}, [[]], {"a": {}}, [[], [{}]]])
@example({"b": [1.5, -0.0, float("nan")], "a": {"x": {1: [2], 3: None}}})
@example({2: "two", 10: "ten", -1: {"k": (1, 2)}})
@example({"": "", "\\": '"', "é": "\x00", "{[,:]}": " "})
def test_render_matches_json_dumps(value):
    assert _outcome(render_report, value) == _outcome(_reference, value)


def test_reports_render_byte_identically():
    pushing, _code = run_script_data(WORKED_PUSHING, RunConfig())
    golden = (DATA / "worked_pushing_report.json").read_text()
    assert render_report(pushing) == golden == _reference(pushing)
    abstract, _code = run_script_data(ABSTRACT_LINKING, RunConfig())
    assert render_report(abstract) == _reference(abstract)
    deep, _code = run_script_data(DEEP_WINDOW_100, RunConfig())
    rendered = render_report(deep)
    assert hashlib.sha256(rendered.encode()).hexdigest() == _reference_digest(deep)


def test_render_keeps_the_errors_of_json_dumps():
    cycle: list = [1]
    cycle.append({"inner": [cycle]})
    with pytest.raises(ValueError, match="Circular reference detected"):
        render_report({"report": cycle})
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_report({"a": [1, object()]})


def test_render_does_not_recurse_on_deep_nesting():
    deep: list = []
    for _ in range(4999):
        deep = [deep]  # 5,000 lists: far past json.dumps's recursion
    rendered = render_report(deep)
    # one line per opening bracket but the innermost "[]", one per closing bracket
    assert rendered.count("\n") == 2 * 4999 + 1
    assert rendered.startswith("[\n  [\n    [\n") and rendered.endswith("\n  ]\n]\n")
    assert ("\n" + "  " * 4999 + "[]\n") in rendered
