"""Per-layer tracing from outside the program, for the traced benchmark run.

Tracer.install() replaces every public function of the eight layer modules
at every module binding that holds it (quatgenus.quaternion.is_isotropic as
well as quatgenus.forms.is_isotropic, and the worker's own imports), plus the
method TowerState.trivialized_below. Each wrapper opens a span whose parent
is the span below it on the stack; a layer's self time is the duration of
its spans less the time their child spans cover. The hot leaves in
HOT_LEAVES are only counted, without spans, so their time stays with the
span that called them. Spans read the worker's calibration clock, which
stops while the calibration loop runs. Nothing inside src/ changes.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict

from quatgenus.tower import TowerState

LAYERS = ("arith", "symbols", "forms", "search", "quaternion", "tower", "certificates", "runner")
HOT_LEAVES = {"arith.squarefree_part", "arith.factor", "symbols.hilbert_symbol"}


def _freeze(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock  # nanoseconds
        self.stack = [0]  # per open span: nanoseconds covered by its children
        self.self_ns: dict[str, int] = defaultdict(int)
        self.span_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.node_ids: dict[tuple, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._observers = {
            "forms.invariants": self._observe_invariants,
            "search.isotropic_vector_search": self._observe_search,
            "quaternion.connecting_algebra": self._observe_connecting,
            "tower.derive_status": self._observe_derive,
            "certificates.replay": self._observe_replay,
            "runner.render_report": self._observe_render,
        }

    # -- observers: extra counts at the layer boundary, kept out of span time

    def _observe_invariants(self, args, result) -> None:
        self.distinct["forms.invariants"].add(args[0])

    def _observe_search(self, args, result) -> None:
        self.counts["search.found"] += result is not None

    def _observe_connecting(self, args, result) -> None:
        self.distinct["quaternion.connecting_algebra"].add((args[0], args[1]))

    def _observe_derive(self, args, result) -> None:
        self.counts["tower.levels_walked"] += args[0].top_level

    def _observe_render(self, args, result) -> None:
        self.counts["runner.report_bytes"] += len(result.encode())

    def _observe_replay(self, args, result) -> None:
        memo: dict[int, tuple[int, int]] = {}

        def visit(cert) -> tuple[int, int]:
            """(interned content id, tree size) of a certificate node."""
            known = memo.get(id(cert))
            if known is None:
                below = [visit(p) for p in cert.premises]
                key = (
                    cert.rule,
                    cert.status.value,
                    _freeze(cert.subject.to_json()),
                    cert.level,
                    _freeze(cert.parameters),
                    tuple(ident for ident, _ in below),
                )
                ident = self.node_ids.setdefault(key, len(self.node_ids))
                known = memo[id(cert)] = (ident, 1 + sum(size for _, size in below))
            return known

        self.counts["certificates.replay.nodes"] += visit(args[0])[1]

    # -- wrappers

    def _spanned(self, layer: str, key: str, fn):
        stack, self_ns, span_ns, calls = self.stack, self.self_ns, self.span_ns, self.calls
        observe = self._observers.get(key)
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - stack.pop()
                span_ns[key] += elapsed
                stack[-1] += elapsed
                calls[key] += 1
            if observe is not None:
                begin = clock()
                observe(args, result)
                stack[-1] += clock() - begin  # observer time belongs to no layer
            return result

        return wrapper

    def _counted(self, key: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"quatgenus.{layer}"]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                if key in HOT_LEAVES:
                    wrappers[id(fn)] = self._counted(key, fn)
                else:
                    wrappers[id(fn)] = self._spanned(layer, key, fn)
        holders = [m for n, m in sys.modules.items() if n == "__main__" or n.startswith("quatgenus")]
        for module in holders:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)
        method = TowerState.trivialized_below
        self._restore.append((TowerState, "trivialized_below", method))
        TowerState.trivialized_below = self._spanned("tower", "tower.trivialized_below", method)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-layer counts and self times, in clock seconds."""

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        calls = self.calls
        witness = calls["quaternion.common_subfield_witness"] + calls["quaternion.distinguishing_witness"]
        metrics = {
            "arith.factor.calls": calls["arith.factor"],
            "arith.squarefree_part.calls": calls["arith.squarefree_part"],
            "symbols.hilbert_symbol.calls": calls["symbols.hilbert_symbol"],
            "forms.invariants.calls": calls["forms.invariants"],
            "forms.invariants.useful_ratio": ratio(
                len(self.distinct["forms.invariants"]), calls["forms.invariants"]
            ),
            "forms.is_isotropic.calls": calls["forms.is_isotropic"],
            "forms.witt_decompose.calls": calls["forms.witt_decompose"],
            "search.calls": calls["search.isotropic_vector_search"],
            "search.found_ratio": ratio(
                self.counts["search.found"], calls["search.isotropic_vector_search"]
            ),
            "quaternion.connecting_algebra.calls": calls["quaternion.connecting_algebra"],
            "quaternion.connecting_algebra.useful_ratio": ratio(
                len(self.distinct["quaternion.connecting_algebra"]),
                calls["quaternion.connecting_algebra"],
            ),
            "quaternion.is_division.calls": calls["quaternion.is_division"],
            "quaternion.is_linked.calls": calls["quaternion.is_linked"],
            "quaternion.witness.calls": witness,
            "tower.derive_status.calls": calls["tower.derive_status"],
            "tower.levels_walked": self.counts["tower.levels_walked"],
            "tower.trivialized_below.calls": calls["tower.trivialized_below"],
            "certificates.replay.calls": calls["certificates.replay"],
            "certificates.replay.nodes": self.counts["certificates.replay.nodes"],
            "certificates.replay.useful_ratio": ratio(
                len(self.node_ids), self.counts["certificates.replay.nodes"]
            ),
            "runner.report_bytes": self.counts["runner.report_bytes"],
            "runner.render_s": self.span_ns["runner.render_report"] / 1e9,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        metrics["traced_s"] = self.stack[0] / 1e9
        return metrics
