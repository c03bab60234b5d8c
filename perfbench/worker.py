"""Run one pass of a workload in a fresh interpreter; print its results as one JSON line.

The pass imports quatgenus from the checkout's src/ directory, builds its
items with inputs.draw, runs them one after another (a closed loop from one
thread), and reports timings, item digests and consistency checks. run.py
starts one of these per pass, so every pass starts with cold caches.

Usage: python3 perfbench/worker.py '{"workload": "queries", "seed": 1, "size": "full"}'
"size" is "full", "tiny" or "corpus" (every corpus item in corpus order, for
run.py --record). Optional keys: "order" (which of the seed's orders the pass
takes, see inputs.draw), "trace" (wrap the layers, see tracing.py) and
"perturb" (alter the first output before hashing, to prove the checksum gate
trips).
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import quatgenus  # noqa: E402

if not Path(quatgenus.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"quatgenus imported from {quatgenus.__file__}, not from {SRC}")

from quatgenus import (  # noqa: E402
    Certificate,
    DiagonalForm,
    InputError,
    PreconditionError,
    QuaternionAlgebra,
    RunConfig,
    TruncationError,
    backend_name,
    common_subfield_witness,
    contains_subfield,
    distinguishing_witness,
    invariants,
    is_isomorphic,
    is_linked,
    isotropic_vector,
    isotropy_failure,
    iter_certificates,
    ramification,
    render_report,
    replay,
    run_script_data,
    witt_decompose,
)
from quatgenus.oracles import local_isotropic_search  # noqa: E402
from quatgenus.runner import certificates_in_report, context_from_report  # noqa: E402
from quatgenus.symbols import INFINITE_PLACE, finite_place  # noqa: E402

import calibration  # noqa: E402
import inputs  # noqa: E402

# Typed refusals, and InputError on well-formed generated input, count as
# failed operations; any other exception aborts the pass.
REFUSALS = (TruncationError, PreconditionError, InputError)
WITNESS_LIMIT = 1000
VECTOR_BOUND = 200

CLOCK = calibration.Clock()
perf = CLOCK.now


def _canonical(answer: object) -> str:
    return json.dumps(answer, sort_keys=True, separators=(",", ":"))


def _refusal(error: Exception) -> dict:
    return {"refused": type(error).__name__}


class Item:
    """One item's outcome: its canonical output and where its time went."""

    def __init__(self) -> None:
        self.output = ""
        self.refused: str | None = None
        # Clock intervals (start, end); run_pass converts them to reference seconds.
        self.produce = (0.0, 0.0)
        self.verify = (0.0, 0.0)
        self.problems: list[str] = []  # failed consistency checks
        self.levels = 0


def run_tower(script: dict) -> Item:
    """Produce the certified report, then re-verify it from its JSON alone."""
    item = Item()
    start = perf()
    try:
        report, _code = run_script_data(script, RunConfig())
        item.output = render_report(report)
    except REFUSALS as error:
        item.refused = type(error).__name__
        item.output = _canonical(_refusal(error))
        item.produce = (start, perf())
        return item
    produced = perf()
    parsed = json.loads(item.output)
    context = context_from_report(parsed)
    nodes = passed = 0
    for cert_json in certificates_in_report(parsed):
        for cert in iter_certificates(Certificate.from_json(cert_json)):
            nodes += 1
            passed += replay(cert, context)
    item.produce = (start, produced)
    item.verify = (produced, perf())
    if report["replay"]["checked"] != report["replay"]["passed"]:
        item.problems.append(f"in-run replay {report['replay']}")
    if passed != nodes:
        item.problems.append(f"from-JSON replay passed {passed} of {nodes} nodes")
    item.levels = len(report["final_state"]["levels"])
    return item


def answer_form(kind: str, coefficients: list[int]) -> dict:
    """The library calls behind `quatgenus form <kind>`, as the CLI makes them."""
    q = DiagonalForm.of(coefficients)
    if kind == "analyze":
        failing = isotropy_failure(q)
        return {
            **invariants(q).to_json(),
            "failing_place": None if failing is None else failing.to_json(),
        }
    if kind == "isotropic":
        failing = isotropy_failure(q)
        if failing is not None:
            return {"isotropic": False, "failing_place": failing.to_json()}
        vector = isotropic_vector(q, VECTOR_BOUND)
        return {"isotropic": True, "witness": None if vector is None else list(vector)}
    return witt_decompose(q).to_json()


def answer_algebra(query: dict) -> dict:
    """The library calls behind `quatgenus quat <kind>`, as the CLI makes them."""
    if query["kind"] == "embeds":
        return {"embeds": contains_subfield(QuaternionAlgebra.of(*query["algebra"]), query["c"])}
    a1 = QuaternionAlgebra.of(*query["first"])
    a2 = QuaternionAlgebra.of(*query["second"])
    if query["kind"] == "compare":
        isomorphic = is_isomorphic(a1, a2)
        linked = is_linked(a1, a2)
        witness = None if isomorphic else distinguishing_witness(a1, a2, WITNESS_LIMIT)
        return {
            "isomorphic": isomorphic,
            "linked": linked,
            "distinguishing_witness": witness,
            "ramification": [
                [v.to_json() for v in ramification(a1)],
                [v.to_json() for v in ramification(a2)],
            ],
        }
    common = common_subfield_witness(a1, a2, WITNESS_LIMIT)
    distinguishing = None if is_isomorphic(a1, a2) else distinguishing_witness(a1, a2, WITNESS_LIMIT)
    return {"common": common, "distinguishing": distinguishing}


def _place(raw: str | int):
    return INFINITE_PLACE if raw == "inf" else finite_place(raw)


def _places(coefficients) -> list:
    primes = {2}
    for c in coefficients:
        primes.update(inputs.prime_factors(c))
    return ["inf"] + sorted(primes)


def _local_square(c: int, place: str | int) -> bool:
    """Is square-free c a square in the completion at the place?"""
    if place == "inf":
        return c > 0
    if c % place == 0:
        return False
    if place == 2:
        return c % 8 == 1
    return pow(c % place, (place - 1) // 2, place) == 1


def _embeds(algebra: list[int], c: int) -> bool:
    """Q(sqrt c) embeds in a division algebra iff c is a non-square at every ramified place."""
    ramified = ["inf" if p is None else p for p in inputs.ramification(*algebra)]
    return not any(_local_square(c, v) for v in ramified)


def _ramification_json(algebra: list[int]) -> list:
    places = inputs.ramification(*algebra)
    return (["inf"] if None in places else []) + sorted(p for p in places if p is not None)


def check_form(kind: str, coefficients: list[int], answer: dict) -> list[str]:
    """Re-check a form answer from its JSON: own arithmetic and the residue-search oracle."""
    q = tuple(coefficients)
    problems = []
    if kind == "witt":
        part = answer["anisotropic_part"] or []
        if 2 * answer["witt_index"] + len(part) != len(q):
            problems.append("witt index and kernel dimension do not add up")
        det = (-1) ** answer["witt_index"]
        for c in q + tuple(part):
            det *= c
        if inputs.squarefree_part(det) != 1:
            problems.append("kernel determinant differs from the form's")
        if answer["witnesses"] and sum(c * x * x for c, x in zip(q, answer["witnesses"][0])):
            problems.append("first splitting witness is not isotropic")
        return problems
    if kind == "analyze":
        det = 1
        for c in q:
            det *= c
        if answer["determinant"] != inputs.squarefree_part(det):
            problems.append("determinant class")
        for raw, eps in answer["hasse"]:
            place = None if raw == "inf" else raw
            own = 1
            for i in range(len(q)):
                for j in range(i + 1, len(q)):
                    own *= inputs.hilbert(q[i], q[j], place)
            if own != eps:
                problems.append(f"Hasse symbol at {raw}")
    if answer.get("witness"):
        if sum(c * x * x for c, x in zip(q, answer["witness"])) != 0:
            problems.append("witness vector is not isotropic")
    elif answer["failing_place"] is not None:
        if local_isotropic_search(q, _place(answer["failing_place"])):
            problems.append("oracle finds the failing place isotropic")
    elif not all(local_isotropic_search(q, _place(v)) for v in _places(q)):
        problems.append("oracle finds an anisotropic place")
    return problems


def check_algebra(query: dict, answer: dict) -> list[str]:
    """Re-check an algebra answer from its JSON with this benchmark's own ramification."""
    if query["kind"] == "embeds":
        ok = answer["embeds"] == _embeds(query["algebra"], query["c"])
        return [] if ok else ["embedding verdict"]
    first, second = query["first"], query["second"]
    isomorphic = inputs.ramification(*first) == inputs.ramification(*second)
    problems = []
    if query["kind"] == "compare":
        if answer["isomorphic"] != isomorphic:
            problems.append("isomorphism verdict")
        if not answer["linked"]:
            problems.append("division algebras over Q are always linked")
        if answer["ramification"] != [_ramification_json(first), _ramification_json(second)]:
            problems.append("ramification sets")
        witness = answer["distinguishing_witness"]
    else:
        common = answer["common"]
        if not (_embeds(first, common) and _embeds(second, common)):
            problems.append("common subfield witness")
        witness = answer["distinguishing"]
    if (witness is None) != isomorphic or (
        witness is not None and _embeds(first, witness) == _embeds(second, witness)
    ):
        problems.append("distinguishing witness")
    return problems


def run_query(query: dict) -> Item:
    item = Item()
    start = perf()
    try:
        if query["kind"] in inputs.FORM_KINDS:
            answer = answer_form(query["kind"], query["form"])
        else:
            answer = answer_algebra(query)
    except REFUSALS as error:
        item.refused = type(error).__name__
        answer = _refusal(error)
    item.output = _canonical(answer)
    produced = perf()
    if item.refused is None:
        if query["kind"] in inputs.FORM_KINDS:
            item.problems = check_form(query["kind"], query["form"], answer)
        else:
            item.problems = check_algebra(query, answer)
    item.produce = (start, produced)
    item.verify = (produced, perf())
    return item


def run_pass(spec: dict) -> dict:
    workload = spec["workload"]
    if spec.get("size") == "corpus":
        drawn = list(enumerate(item for stratum in inputs.corpus(workload) for item in stratum))
    else:
        drawn = inputs.draw(workload, spec["seed"], spec.get("size", "full"), spec.get("order", 0))
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer(CLOCK.now_ns)
        tracer.install()
    items = []
    CLOCK.start()
    start = perf()
    for _index, entry in drawn:
        if workload == "queries":
            items.append(run_query(entry))
        else:
            items.append(run_tower(entry["script"]))
    wall = perf() - start
    CLOCK.stop()
    seconds = lambda interval: CLOCK.reference(*interval)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
    if spec.get("perturb"):
        items[0].output += " "
    digests = [hashlib.sha256(item.output.encode()).hexdigest()[:16] for item in items]
    indices = [index for index, _entry in drawn]
    refusals: dict[str, int] = {}
    for item in items:
        if item.refused is not None:
            refusals[item.refused] = refusals.get(item.refused, 0) + 1
    return {
        "workload": workload,
        "backend": backend_name(),
        "python": platform.python_version(),
        "scale": CLOCK.scale(),
        "measured_wall_s": wall,
        "report_s": sum(seconds(item.produce) for item in items),
        "verify_s": sum(seconds(item.verify) for item in items),
        # A query's latency is its answer; a script's, its report and verification.
        "latencies_s": [
            seconds(item.produce) if workload == "queries" else seconds(item.produce) + seconds(item.verify)
            for item in items
        ],
        "kinds": [entry["kind"] for _index, entry in drawn],
        "items": [list(pair) for pair in zip(indices, digests)],
        "digest": hashlib.sha256("".join(d for _i, d in sorted(zip(indices, digests))).encode()).hexdigest(),
        "problems": [[index, p] for (index, _e), item in zip(drawn, items) for p in item.problems],
        "attempted": len(items),
        "failed": sum(refusals.values()),
        "refusals": refusals,
        "levels": [item.levels for item in items],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
