"""The report renderer: json.dumps(indent=2, sort_keys=True)'s bytes, without its recursion."""

import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quatgenus.runner import RunConfig, iter_report, render_report, run_script_data

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


class Level(enum.IntEnum):
    TOP = 7


class Name(str):
    pass


class Items(list):
    pass


def _int_list_at_two_depths():
    ints = [3, -5, 7]
    return {"a": ints, "b": [[ints, 1]], "c": {"d": ints}}


def _cycle_through_a_dict_reached_twice():
    looped: dict = {"n": 1}
    looped["back"] = {"again": looped}
    return [looped, {"x": looped}]


def _cycle_through_a_tuple():
    outer: list = []
    outer.append((outer,))
    return outer


def _cycle_through_a_list_subclass():
    looped: dict = {"n": 1}
    looped["items"] = Items([looped, 2])
    return looped


def _shared_list_subclass():
    items = Items([{"k": Name("v")}, Level.TOP])
    return {"a": items, "b": [items, [items]]}


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _streamed(value) -> str:
    return "".join(iter_report(value))


RENDERERS = (render_report, _streamed)


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
@example(None)  # a scalar root: nothing is shared
# a bool is not an int to the integer-list join
@example([1, True, 2])
@example([0, False])
# subclasses of int and str take json's isinstance route, in a list and as a value
@example([Level.TOP, 1])
@example({"level": Level.TOP, "name": Name("x\n")})
@example([Name("a"), Name('"b"')])
@example([2**200, -1])
@example((1, 2, 3))
@example({"ints": [1, 2], "tuple": (4, 5), "mixed": [1, "1"], "nested": [[1], [2, 3]]})
@example({"": "", "\\": '"', "é": "\x00", "{[,:]}": " "})
def test_render_matches_json_dumps(value):
    expected = _outcome(_reference, value)
    for render in RENDERERS:
        assert _outcome(render, value) == expected


# small scalars and keys keep generation fast; test_render_matches_json_dumps
# covers text and numbers
small = st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.sampled_from(["", "é\n", 1.5]))
small_keys = st.sampled_from(["a", "b", "", 'é"'])


def _containers(children, mixed_keys=False, min_size=1):
    options = [
        st.lists(children, min_size=min_size, max_size=3),
        st.lists(children, min_size=min_size, max_size=3).map(tuple),
        st.dictionaries(small_keys, children, min_size=min_size, max_size=3),
    ]
    if mixed_keys:
        keys = st.one_of(small_keys, st.integers(-2, 2), st.none())
        options.append(st.dictionaries(keys, children, min_size=1, max_size=2))
    return st.one_of(options)


@st.composite
def shared_values(draw):
    """A value citing drawn sub-values at several places and depths, maybe on a cycle.

    Each sub-value may cite the ones drawn before it, so shared containers
    nest inside shared containers.
    """
    pool: list = []
    for _ in range(draw(st.integers(1, 5))):
        leaves = st.one_of(small, st.builds(object), *([st.sampled_from(pool)] if pool else []))
        pool.append(draw(_containers(leaves, mixed_keys=True)))
    cited = st.sampled_from(pool)
    nested = st.one_of(cited, _containers(cited), _containers(_containers(cited)), small)
    value = draw(_containers(nested, min_size=2))
    lists = [sub for sub in pool if isinstance(sub, list)]
    if lists and draw(st.booleans()):
        # a cycle through a shared list: the value cites the list, which cites the value
        target = draw(st.sampled_from(lists))
        value = [value, target]
        target.append(value)
    return value


def _shared_at_several_depths():
    leaf = {"k": [1, "v"]}
    middle = [leaf, leaf]
    return {"a": middle, "b": [[middle]], "c": {"d": leaf}}


def _shared_object():
    inner = [1, object()]
    return {"a": inner, "b": [inner]}


def _shared_mixed_keys():
    mixed = {"x": [1], 2: "two"}
    return [mixed, {"k": mixed}, [[mixed]]]


def _shared_sortable_non_str_keys():
    ints = {2: [3], 1: {"y": None}}
    return {"a": ints, "b": [ints, (ints,)]}


def _cycle_through_shared():
    shared: list = [1]
    root = {"first": shared, "second": [shared]}
    shared.append(root)
    return root


@given(shared_values())
@settings(max_examples=300)
@example(_shared_at_several_depths())
@example(_shared_object())
@example(_shared_mixed_keys())
@example(_shared_sortable_non_str_keys())
@example(_cycle_through_shared())
@example(_int_list_at_two_depths())
@example(_cycle_through_a_dict_reached_twice())
@example(_cycle_through_a_tuple())
@example((_cycle_through_a_tuple()[0],))
@example(_cycle_through_a_list_subclass())
@example(_shared_list_subclass())
def test_render_matches_json_dumps_on_shared_values(value):
    expected = _outcome(_reference, value)
    for render in RENDERERS:
        assert _outcome(render, value) == expected


def test_no_piece_holds_many_copies_of_a_reused_text():
    # a reused text ends its piece; a batch of 4,096 parts could join as many copies
    shared = {"k": list(range(100)), "s": "x" * 1000}
    value = {"a": [shared] * 10_000, "b": [[shared, 1]] * 3}
    copy = len(_reference([shared]))  # the text at depth 1, with its brackets
    pieces = list(iter_report(value))
    assert max(map(len, pieces)) <= 3 * copy
    assert "".join(pieces) == _reference(value)


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
    for render in RENDERERS:
        with pytest.raises(ValueError, match="Circular reference detected"):
            render({"report": cycle})
        with pytest.raises(TypeError, match="not JSON serializable"):
            render({"a": [1, object()]})


def test_render_does_not_recurse_on_deep_nesting():
    deep: list = []
    for _ in range(4999):
        deep = [deep]  # 5,000 lists: far past json.dumps's recursion
    rendered = render_report(deep)
    # one line per opening bracket but the innermost "[]", one per closing bracket
    assert rendered.count("\n") == 2 * 4999 + 1
    assert rendered.startswith("[\n  [\n    [\n") and rendered.endswith("\n  ]\n]\n")
    assert ("\n" + "  " * 4999 + "[]\n") in rendered


def _frames() -> int:
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    return frames


def test_render_does_not_recurse_on_shared_nesting():
    # every level of the chain is also listed in a side list, so each level is
    # a shared container that opens inside the one above it. The text grows
    # with the cube of the depth, so the depth stays small and the recursion
    # limit is cut below it instead.
    levels: list = []
    chain: list = []
    for _ in range(200):
        chain = [chain, 0]
        levels.append(chain)
    value = {"chain": chain, "levels": levels}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 60)  # far fewer frames than nesting levels
    try:
        rendered = render_report(value)
    finally:
        sys.setrecursionlimit(limit)
    assert rendered == _reference(value)


def test_render_does_not_recurse_on_a_deep_chain_with_shared_levels():
    deep: list = []
    levels: list = []
    for _ in range(4999):
        deep = [deep]  # 5,000 lists
        levels.append(deep)
    # the innermost levels are also listed beside the chain: each is captured
    # about 5,000 levels deep and written again two levels deep
    side = levels[:3]
    rendered = render_report([deep, side])
    assert rendered == (
        "[\n  "
        + render_report(deep)[:-1].replace("\n", "\n  ")
        + ",\n  "
        + _reference(side)[:-1].replace("\n", "\n  ")
        + "\n]\n"
    )
