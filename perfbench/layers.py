"""Per-layer metrics from a cProfile trace of the timed ops.

A function belongs to the layer of the triwaring module that defines it
(fields, power_sums, tri_matrix, canonical, decomposer, oracle, cli).
Time spent in anything else (stdlib, builtins, dataclass-generated
__init__, the errors module) is charged along the profiler's caller edges
to the nearest triwaring layer that called it; what reaches no layer is
the benchmark's own ("harness") time. Counts come from call counts and
caller edges, so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import os

LAYERS = ("fields", "power_sums", "tri_matrix", "canonical", "decomposer",
          "oracle", "cli")
HARNESS = "harness"

# every per-layer metric, in the order BENCHMARK.json lists them
NAMES = [
    "tri_matrix.self_s", "tri_matrix.mat_mul.calls", "tri_matrix.mat_pow.calls",
    "tri_matrix.root.calls", "tri_matrix.root_s", "tri_matrix.matrices_built",
    "fields.self_s", "fields.add.calls", "fields.mul.calls", "fields.pow.calls",
    "fields.field_builds", "fields.field_build_s",
    "power_sums.self_s", "power_sums.classify.calls", "power_sums.classify_s",
    "power_sums.select.calls", "power_sums.select_s", "power_sums.pdq.calls",
    "decomposer.select_rounds_per_op", "decomposer.fallback_ratio",
    "decomposer.self_s", "decomposer.decompose_s", "decomposer.verify_s",
    "oracle.self_s", "oracle.image_builds", "oracle.matrices_enumerated",
    "oracle.sumset_adds", "oracle.query_s",
    "canonical.self_s", "canonical.calls_in", "cli.self_s",
    "trace.overhead_ratio",
]

ROOT_ENTRIES = ("backsub_root", "kth_root_distinct_diag", "kth_root_sparse")
DECOMPOSE_ENTRIES = ("decompose_two", "decompose_three", "decompose_structured")


def layer_of(func, pkg_dir: str) -> str | None:
    filename = func[0]
    if os.path.dirname(filename) != pkg_dir:
        return None
    module = os.path.splitext(os.path.basename(filename))[0]
    return module if module in LAYERS else None


class Trace:
    """Queries over pstats-style raw stats:
    {func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}, func being
    (filename, line, name)."""

    def __init__(self, stats: dict, pkg_dir: str):
        self.stats = stats
        self.pkg_dir = pkg_dir
        self._owner: dict = {}

    def funcs(self, layer: str, name: str):
        return [f for f in self.stats
                if f[2] == name and layer_of(f, self.pkg_dir) == layer]

    def calls(self, layer: str, *names: str) -> int:
        return sum(self.stats[f][1] for n in names for f in self.funcs(layer, n))

    def cumulative(self, layer: str, *names: str) -> float:
        return sum(self.stats[f][3] for n in names for f in self.funcs(layer, n))

    def entries(self, layer: str, names, outside=None):
        """(calls, cumulative s) over edges into the named functions from
        callers that are not themselves among `outside` (default: the named
        functions), i.e. the requests entering that group."""
        group = {f for n in names for f in self.funcs(layer, n)}
        outside = group if outside is None else outside
        calls, secs = 0, 0.0
        for f in group:
            for caller, (nc, _, _, ct) in self.stats[f][4].items():
                if caller not in outside:
                    calls += nc
                    secs += ct
        return calls, secs

    def edge_calls(self, callee_layer: str, names, caller_layer: str) -> int:
        return sum(nc for n in names for f in self.funcs(callee_layer, n)
                   for caller, (nc, _, _, _) in self.stats[f][4].items()
                   if layer_of(caller, self.pkg_dir) == caller_layer)

    def owner(self, func, visiting=frozenset()) -> dict[str, float]:
        """Share of func's own time owed to each layer: itself if it is in
        a layer, else its callers' owners weighted by their edge times."""
        layer = layer_of(func, self.pkg_dir)
        if layer is not None:
            return {layer: 1.0}
        if func in self._owner:
            return self._owner[func]
        callers = {c: e for c, e in self.stats.get(func, (0, 0, 0, 0, {}))[4].items()
                   if c != func and c not in visiting}
        weight = sum(e[3] for e in callers.values())
        if not callers or weight <= 0:
            dist = {HARNESS: 1.0}
        else:
            dist = {}
            for c, e in callers.items():
                for lay, share in self.owner(c, visiting | {func}).items():
                    dist[lay] = dist.get(lay, 0.0) + share * e[3] / weight
        self._owner[func] = dist  # a cut cycle edge is dropped for good
        return dist

    def self_times(self) -> dict[str, float]:
        out = {lay: 0.0 for lay in (*LAYERS, HARNESS)}
        for func, (_, _, tt, _, _) in self.stats.items():
            for lay, share in self.owner(func).items():
                out[lay] += tt * share
        return out


def layer_metrics(stats: dict, pkg_dir: str) -> dict[str, float]:
    """Every metric of NAMES except trace.overhead_ratio, which needs the
    untraced run."""
    t = Trace(stats, pkg_dir)
    own = t.self_times()
    root_calls, root_s = t.entries("tri_matrix", ROOT_ENTRIES)
    decomposer_funcs = {f for f in stats if layer_of(f, pkg_dir) == "decomposer"}
    _, decompose_s = t.entries("decomposer", DECOMPOSE_ENTRIES,
                               decomposer_funcs)
    two_three_ops, _ = t.entries("decomposer", DECOMPOSE_ENTRIES[:2],
                                 decomposer_funcs)
    oracle_funcs = {f for f in stats if layer_of(f, pkg_dir) == "oracle"}
    canonical_funcs = {f for f in stats if layer_of(f, pkg_dir) == "canonical"}
    select_calls = t.calls("power_sums", "select_system_pairs")
    three_calls = t.calls("decomposer", "decompose_three")
    calls_in = sum(nc for f in canonical_funcs
                   for caller, (nc, _, _, _) in stats[f][4].items()
                   if caller not in canonical_funcs)
    query_s = sum(ct for f in oracle_funcs
                  for caller, (_, _, _, ct) in stats[f][4].items()
                  if caller not in oracle_funcs)
    return {
        "tri_matrix.self_s": own["tri_matrix"],
        "tri_matrix.mat_mul.calls": t.calls("tri_matrix", "mat_mul"),
        "tri_matrix.mat_pow.calls": t.calls("tri_matrix", "mat_pow"),
        "tri_matrix.root.calls": root_calls,
        "tri_matrix.root_s": root_s,
        "tri_matrix.matrices_built": t.calls("tri_matrix", "__post_init__"),
        "fields.self_s": own["fields"],
        "fields.add.calls": t.calls("fields", "add"),
        "fields.mul.calls": t.calls("fields", "mul"),
        "fields.pow.calls": t.calls("fields", "pow"),
        "fields.field_builds": t.calls("fields", "__post_init__"),
        "fields.field_build_s": t.cumulative("fields", "__post_init__"),
        "power_sums.self_s": own["power_sums"],
        "power_sums.classify.calls": t.calls("power_sums", "classify_solutions"),
        "power_sums.classify_s": t.cumulative(
            "power_sums", "enumerate_pair_solutions", "classify_solutions"),
        "power_sums.select.calls": select_calls,
        "power_sums.select_s": t.cumulative("power_sums", "select_system_pairs"),
        "power_sums.pdq.calls": t.calls("power_sums", "power_diff_quotient"),
        "decomposer.select_rounds_per_op":
            select_calls / two_three_ops if two_three_ops else 0.0,
        "decomposer.fallback_ratio":
            t.calls("decomposer", "_three_by_position_search") / three_calls
            if three_calls else 0.0,
        "decomposer.self_s": own["decomposer"],
        "decomposer.decompose_s": decompose_s,
        "decomposer.verify_s": t.cumulative("decomposer", "verify_decomposition"),
        "oracle.self_s": own["oracle"],
        "oracle.image_builds": t.calls("oracle", "all_kth_powers"),
        "oracle.matrices_enumerated": t.calls("oracle", "iter_matrices", "iter_bn"),
        "oracle.sumset_adds": t.edge_calls("tri_matrix", ("__add__", "__sub__"),
                                           "oracle"),
        "oracle.query_s": query_s,
        "canonical.self_s": own["canonical"],
        "canonical.calls_in": calls_in,
        "cli.self_s": own["cli"],
    }


def shares(stats: dict, pkg_dir: str) -> dict[str, float]:
    """Each layer's (and the harness's) share of traced self time."""
    own = Trace(stats, pkg_dir).self_times()
    total = sum(own.values()) or 1.0
    return {lay: v / total for lay, v in own.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_op"):
        return "calls/op"
    return "count"
