"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each factorum layer module, and
the handle methods that do real work, from outside the library.  Every
call records a span (name, start, end, parent) in flat in-memory arrays.
At the end of each round the spans are folded into per-layer totals and
cleared, which bounds memory; the last round's spans are written out when
the run ends.  Self time of a span is its duration minus the durations of
its direct children, so the self time of a layer is the time spent in
that layer's own code.

Importers hold their own references (``factorum.catenary`` holds
``distance``, ``factorum.cli`` holds ``rigid_distance_alignment``, the
package re-exports nearly everything), so each wrapped function is
rebound in every ``factorum`` module namespace that holds it; otherwise
calls between layers would bypass the wrapper and land in the caller's
self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

LAYERS = ("presentation", "factorizations", "distances", "catenary",
          "divisibility", "zerosum", "matrices", "abelianization", "cli")

# Handle methods worth a span.  Trivial accessors (key, is_unit, multiply,
# atom_class, ...) stay unwrapped: they run millions of times and their
# time is charged to the caller.
_METHODS = {
    "presentation": ("PresentationSemigroup", (
        "__init__", "congruence_ball", "element", "element_from_str",
        "equal", "atom_answer", "left_divisors", "enumerate_elements",
        "enumerate_atoms")),
    "zerosum": ("BlockMonoidHandle", ("__init__", "left_divisor_atoms",
                                      "enumerate_elements")),
    "abelianization": ("CommutativeVectorSemigroup", (
        "__init__", "ball", "left_divisor_atoms", "unit_scan",
        "cancellativity_scan")),
}

# Private functions that are the real implementation of a public entry
# point and are called directly from other functions.
_PRIVATE = {"divisibility": ("_divides_p_cached",)}

# Public helpers called twice per distance evaluation: a span would cost
# more than the call, so their time stays with the calling kernel.
_SKIP = {"factorizations": ("class_multiset",)}


class Tracer:
    """Flat span store plus per-span payload counters."""

    def __init__(self):
        self.names: List[str] = []          # name id -> "layer:qualname"
        self.name_layer: List[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.payload = array("q")
        self._stack = [-1]
        self._restore: List[Tuple[object, str, object]] = []
        self.balls: Dict[int, object] = {}          # distinct balls returned
        self.factor_sets: Dict[Tuple, object] = {}  # first result per element
        self.totals: Dict[str, float] = defaultdict(float)
        self.rounds = 0
        self.last_round = (array("i"), array("i"), array("d"), array("d"))

    # wrapping --------------------------------------------------------

    def _name_id(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}:{qualname}")
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _wrap(self, nid: int, fn: Callable, on_result=None) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, payload = self.span_start, self.span_end, self.payload

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    payload.append(0)
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        ends[idx] = clock()
                        stack.pop()
                        return
                    ends[idx] = clock()
                    stack.pop()
                    payload[idx] = 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            payload.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(idx, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer's entry points and rebind all aliases."""
        mods = {name: importlib.import_module(f"factorum.{name}")
                for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "factorum" or n.startswith("factorum.")]
        hooks = self._hooks()
        for layer, mod in mods.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")
                     and n not in _SKIP.get(layer, ())]
            names += list(_PRIVATE.get(layer, ()))
            for name in names:
                orig = getattr(mod, name)
                wrapped = self._wrap(self._name_id(layer, name), orig,
                                     hooks.get(f"{layer}:{name}"))
                for ns in namespaces:
                    for alias, obj in list(vars(ns).items()):
                        if obj is orig:
                            self._restore.append((ns, alias, orig))
                            setattr(ns, alias, wrapped)
            if layer in _METHODS:
                cls_name, methods = _METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    qual = f"{cls_name}.{meth}"
                    wrapped = self._wrap(self._name_id(layer, qual), orig,
                                         hooks.get(f"{layer}:{qual}"))
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # result hooks: counters measured where the work happens ------------

    def _hooks(self):
        payload = self.payload
        balls = self.balls
        factor_sets = self.factor_sets

        def ball(idx, args, result):
            balls.setdefault(id(result), result)

        def rigid(idx, args, result):
            handle, a = args[0], args[1]
            payload[idx] = len(result.factorizations) * 2 \
                + (0 if result.complete else 1)
            factor_sets.setdefault((id(handle), handle.key(a)),
                                   (handle, result))

        def pclass(idx, args, result):
            payload[idx] = 0 if result[1] else 1

        def cells(idx, args, result):
            z, zp = args[1], args[2]
            payload[idx] = (len(z.atoms) + 1) * (len(zp.atoms) + 1)

        return {
            "presentation:PresentationSemigroup.congruence_ball": ball,
            "factorizations:rigid_factorizations": rigid,
            "factorizations:permutable_class_multisets": pclass,
            "distances:rigid_distance_alignment": cells,
        }

    # per-round bookkeeping ----------------------------------------------

    def begin_round(self) -> None:
        """Drop spans made outside a round (checks, summaries)."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end, self.payload):
            del arr[:]
        del self._stack[1:]
        self.balls.clear()
        self.factor_sets.clear()

    def end_round(self) -> None:
        """Fold the round's spans into per-layer totals, keep a copy of them
        for ``write_spans``, and drop the references to the round's balls
        and factorization sets so its cold engines can die."""
        tot = self.totals
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        span_name, payload = self.span_name, self.payload
        layer_of, names = self.name_layer, self.names
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for i in range(n):
            nid = span_name[i]
            name = names[nid]
            tot["self:" + layer_of[nid]] += ends[i] - starts[i] - child[i]
            tot[name] += 1
            if name == "factorizations:rigid_factorizations":
                count, flag = divmod(payload[i], 2)
                tot["rigid_returned"] += count
                tot["incomplete"] += flag
                p = parents[i]
                if p >= 0 and layer_of[span_name[p]] == "catenary":
                    tot["graph_nodes"] += count
                    tot["graph_edges"] += count * (count - 1) // 2
            elif name in ("factorizations:permutable_class_multisets",
                          "distances:rigid_distance_alignment",
                          "zerosum:zero_sum_sequences"):
                tot["payload:" + name] += payload[i]
        self.last_round = (array("i", span_name), array("i", parents),
                           array("d", starts), array("d", ends))
        balls = list(self.balls.values())
        sets = list(self.factor_sets.values())
        self.begin_round()
        self.rounds += 1
        for ball in balls:
            tot["balls_built"] += 1
            tot["ball_members_built"] += len(ball.members)
            tot["balls_not_closed"] += 0 if ball.closed else 1
        for handle, fs in sets:
            if fs.factorizations:
                tot["rigid_distinct"] += len(fs.factorizations)
                tot["class_multisets"] += len({
                    tuple(sorted(handle.atom_class(u) for u in z.atoms))
                    for z in fs.factorizations})

    # derivation ------------------------------------------------------------

    def layer_metrics(self, bytes_out: float, time_scale: float
                      ) -> Dict[str, float]:
        """Per-round self times (raw seconds times ``time_scale``) and
        counts for every layer."""
        tot = self.totals
        r = float(self.rounds)

        def per_round(*keys):
            return sum(tot[k] for k in keys) / r

        def self_s(layer):
            return tot["self:" + layer] * time_scale / r

        def layer_calls(layer):
            return sum(v for k, v in tot.items()
                       if k.startswith(layer + ":")) / r

        ball_calls = tot["presentation:PresentationSemigroup.congruence_ball"]
        return {
            "presentation.self_s": self_s("presentation"),
            "presentation.ball_calls": ball_calls / r,
            "presentation.balls_built": per_round("balls_built"),
            "presentation.ball_hit_ratio":
                (1 - tot["balls_built"] / ball_calls) if ball_calls else 0.0,
            "presentation.ball_members_built": per_round("ball_members_built"),
            "presentation.balls_not_closed": per_round("balls_not_closed"),
            "presentation.atom_answer_calls":
                per_round("presentation:PresentationSemigroup.atom_answer"),
            "presentation.left_divisors_calls":
                per_round("presentation:PresentationSemigroup.left_divisors"),
            "presentation.element_calls":
                per_round("presentation:PresentationSemigroup.element"),
            "factorizations.self_s": self_s("factorizations"),
            "factorizations.calls": layer_calls("factorizations"),
            "factorizations.rigid_returned": per_round("rigid_returned"),
            "factorizations.rigid_per_class":
                (tot["rigid_distinct"] / tot["class_multisets"])
                if tot["class_multisets"] else 0.0,
            "factorizations.incomplete": per_round(
                "incomplete",
                "payload:factorizations:permutable_class_multisets"),
            "distances.self_s": self_s("distances"),
            "distances.rigid_calls":
                per_round("distances:rigid_distance_alignment"),
            "distances.rigid_cells":
                per_round("payload:distances:rigid_distance_alignment"),
            "distances.permutable_calls":
                per_round("distances:permutable_distance"),
            "distances.axiom_calls": per_round("distances:verify_axioms"),
            "catenary.self_s": self_s("catenary"),
            "catenary.calls": layer_calls("catenary"),
            "catenary.graph_nodes": per_round("graph_nodes"),
            "catenary.graph_edges": per_round("graph_edges"),
            "divisibility.self_s": self_s("divisibility"),
            "divisibility.calls": layer_calls("divisibility"),
            "divisibility.divides_p_calls":
                per_round("divisibility:_divides_p_cached"),
            "zerosum.self_s": self_s("zerosum"),
            "zerosum.left_divisor_calls":
                per_round("zerosum:BlockMonoidHandle.left_divisor_atoms"),
            "zerosum.sequences": per_round("payload:zerosum:zero_sum_sequences"),
            "matrices.self_s": self_s("matrices"),
            "matrices.left_divisor_calls": per_round(
                "matrices:tri_left_divisors", "matrices:mat_left_divisors"),
            "matrices.snf_calls": per_round("matrices:snf"),
            "abelianization.self_s": self_s("abelianization"),
            "cli.self_s": self_s("cli"),
            "cli.bytes_out": bytes_out / r,
        }

    def write_spans(self, path: str) -> int:
        """Write the last traced round's spans, gzip-compressed, one per
        tab-separated line: id, name, parent id, start and end in seconds
        from the round's first span."""
        span_name, parents, starts, ends = self.last_round
        t0 = starts[0] if starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(starts)):
                fh.write(f"{i}\t{self.names[span_name[i]]}\t{parents[i]}\t"
                         f"{starts[i] - t0:.9f}\t{ends[i] - t0:.9f}\n")
        return len(starts)
