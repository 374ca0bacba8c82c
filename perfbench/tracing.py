"""Outside-in tracing of `coxtoric` for the benchmark's traced run.

Wrappers are installed from the benchmark, around the public functions
and methods of each layer (module) of the package.  A function wrapper
replaces the function in every `coxtoric` module namespace that bound it,
since intra-package calls go through those bindings; a method wrapper
replaces the method on its class.  Spans are kept in memory as parallel
arrays and written out at the end; self times and counts are derived
from them.
"""

import gzip
import sys
import time
from array import array
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import oracle


def _distinct_primitive(vectors):
    return {tuple(oracle.primitive(v)) for v in vectors}


def _max_bits(*matrices):
    return max((abs(x).bit_length() for m in matrices for row in m.entries for x in row),
               default=0)


def _extreme(args, cone):
    return len(cone.rays), len(_distinct_primitive(args[1]))


def _normal_yield(args, result):
    normals, equations = result
    d = args[0] - len(equations)
    return len(normals), comb(len(_distinct_primitive(args[1])), d - 1) if d else 0


def _output_bytes(args, result):
    # the benchmark calls main with stdout redirected to a fresh StringIO;
    # the JSON it writes is ASCII, so characters are bytes
    return sys.stdout.tell(), 0


@dataclass(frozen=True)
class Spec:
    """One traced boundary: `name` is a function of module `layer`, or
    `Class.method`; `stats` are the metrics reported for it; `extra`
    computes up to two counts (a, b) from the arguments and the result."""

    layer: str
    name: str
    stats: tuple
    extra: Optional[Callable] = None
    label: Optional[str] = None       # metric name, when not `name`


CALLS_SELF = ("calls", "self_s")
SPECS = (
    Spec("intlin", "smith_normal_form", CALLS_SELF + ("max_bits",),
         lambda args, r: (_max_bits(r.U, r.V), 0)),
    Spec("intlin", "column_hermite_normal_form", CALLS_SELF + ("max_bits",),
         lambda args, r: (_max_bits(r[1]), 0)),
    Spec("intlin", "solve_integer", CALLS_SELF),
    Spec("intlin", "saturation_basis", CALLS_SELF),
    Spec("intlin", "invert_unimodular", ("calls",)),
    Spec("intlin", "kernel_basis", ("calls",)),
    Spec("intlin", "IntMatrix.rank", CALLS_SELF),
    Spec("cones", "cone_from_rays", CALLS_SELF + ("extreme_ratio",), _extreme),
    Spec("cones", "dual_constraints", CALLS_SELF + ("normal_yield",), _normal_yield),
    Spec("cones", "Cone.faces", CALLS_SELF + ("returned",), lambda args, r: (len(r), 0)),
    Spec("cones", "Cone.intersect", CALLS_SELF),
    Spec("cones", "Cone.is_face_of", ("calls",)),
    Spec("fans", "fan_from_max_cones", CALLS_SELF + ("cones_built",),
         lambda args, r: (len(r.all_cones), 0)),
    Spec("fans", "fan_from_dict", CALLS_SELF),
    Spec("fans", "is_map_of_fans", CALLS_SELF),
    Spec("fans", "Fan.walls", CALLS_SELF),
    Spec("fans", "Fan.has_convex_support", CALLS_SELF),
    Spec("groups", "subgroup_from_weights", ()),      # spanned only to cover diag ops
    Spec("groups", "classify_quotient", CALLS_SELF),
    Spec("groups", "commutes_with_torus", CALLS_SELF),
    Spec("groups", "centralizes_torus", CALLS_SELF),
    Spec("groups", "character_root_isogeny", CALLS_SELF),
    Spec("groups", "hyperplane_permutation_report", ("calls",)),
    Spec("groups", "is_effective", ("calls",)),
    Spec("groups", "MonomialMatrix.__init__", ("constructed",), label="MonomialMatrix"),
    Spec("cox", "cox_presentation", CALLS_SELF),
    Spec("cox", "complement_codim", CALLS_SELF),
    Spec("cox", "class_group", ("calls",)),
    Spec("pipeline", "theorem_pipeline", CALLS_SELF + ("hypotheses_met",),
         lambda args, r: (int(r.hypotheses_met), 0)),
    Spec("cli", "main", CALLS_SELF + ("output_bytes",), _output_bytes),
)
# Counted, not spanned: there are hundreds of thousands of these per run.
COUNTED = (("intlin", "IntMatrix.__init__", "IntMatrix.constructed"),)

# units; every count and time is per op of the traced run
UNITS = {"calls": "count/op", "self_s": "s/op", "max_bits": "bits",
         "extreme_ratio": "ratio", "normal_yield": "ratio", "returned": "count/op",
         "cones_built": "count/op", "hypotheses_met": "count/op",
         "output_bytes": "bytes/op", "constructed": "count/op"}
RATIOS = {"extreme_ratio", "normal_yield"}
# trace.untraced_ops_per_s is the untraced replay's throughput with every
# op as timed, in wall time; trace.overhead is untraced over traced
# ops_per_s on the same ops; trace.coverage_* is the share of an op's wall
# time inside its top-level spans, over the ops of the traced run.
SUMMARY = {"trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
           "trace.overhead": "ratio",
           "trace.coverage_p50": "ratio", "trace.coverage_p10": "ratio",
           "trace.coverage_min": "ratio", "trace.spans": "count/op"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for s in SPECS:
        for stat in s.stats:
            out[f"{s.layer}.{s.label or s.name}.{stat}"] = UNITS[stat]
    for layer, _, label in COUNTED:
        out[f"{layer}.{label}"] = UNITS["constructed"]
    out.update(SUMMARY)
    return out


def _target(modules, layer, name):
    """(owner, attribute) of a traced name: its class, or its home module."""
    home = modules[f"coxtoric.{layer}"]
    if "." in name:
        cls, attr = name.split(".")
        return getattr(home, cls), attr
    return home, name


FIELDS = ("idx", "name", "parent", "op", "start", "end", "a", "b", "overhead")


def self_times(spans):
    """Per span: its duration minus the time its direct children cover,
    their wrapper bookkeeping (`overhead`, spent outside [start, end])
    included.  Spans of one thread nest, so direct children never
    overlap.  `spans` maps FIELDS to equal-length columns indexed by span
    id, with parent -1 for a top-level span."""
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0] * len(dur)
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += dur[i] + spans["overhead"][i]
    return [d - c for d, c in zip(dur, child)]


def op_coverage(spans, op_start, op_end):
    """Per op: the share of its wall time inside its top-level spans.  A
    span's wrapper bookkeeping counts as inside it, so that what is left
    uncovered is untraced work of the op itself."""
    top = [0] * len(op_end)
    for p, op, s, e, o in zip(spans["parent"], spans["op"], spans["start"], spans["end"],
                              spans["overhead"]):
        if p < 0:
            top[op] += e - s + o
    return [t / (e - s) for t, s, e in zip(top, op_start, op_end)]


class Tracer:
    """Span store plus the wrappers that fill it.

    A span is recorded when it ends, as len(FIELDS) integers appended to
    one flat array; its id is assigned when it starts, so that its
    children can name it as their parent.
    """

    def __init__(self):
        self.records = array("q")
        self.next_id = [0]
        self.stack = [-1]
        self.op_id = -1
        self.op_start = array("q")
        self.op_end = array("q")
        self.counts = [0] * len(COUNTED)
        self.installed = []         # (owner, attribute, original)

    # --- ops ----------------------------------------------------------
    def begin_op(self):
        self.op_id += 1
        self.op_start.append(time.perf_counter_ns())

    def end_op(self):
        self.op_end.append(time.perf_counter_ns())

    @property
    def ops(self):
        return len(self.op_end)

    # --- wrappers -----------------------------------------------------
    def _span_wrapper(self, fn, name_id, extra):
        clock = time.perf_counter_ns
        stack, next_id, record = self.stack, self.next_id, self.records.extend

        def wrapper(*args, **kwargs):
            t_in = clock()
            idx = next_id[0]
            next_id[0] = idx + 1
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                value = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                record((idx, name_id, parent, self.op_id, t0, t1, 0, 0, t0 - t_in))
                raise
            t1 = clock()
            stack.pop()
            x, y = (0, 0) if extra is None else extra(args, value)
            record((idx, name_id, parent, self.op_id, t0, t1, x, y, t0 - t_in + clock() - t1))
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, k):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[k] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        """Wrap every traced name.  `modules` maps module names to modules
        and must hold the whole `coxtoric` package."""
        package = [m for n, m in modules.items() if n == "coxtoric" or n.startswith("coxtoric.")]
        targets = [(s.layer, s.name, lambda fn, i=i, s=s: self._span_wrapper(fn, i, s.extra))
                   for i, s in enumerate(SPECS)]
        targets += [(layer, name, lambda fn, k=k: self._count_wrapper(fn, k))
                    for k, (layer, name, _) in enumerate(COUNTED)]
        for layer, name, make in targets:
            owner, attr = _target(modules, layer, name)
            original = getattr(owner, attr)
            wrapper = make(original)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # --- results ------------------------------------------------------
    def spans(self):
        """The recorded spans as columns (see FIELDS), ordered by id."""
        width = len(FIELDS)
        by_end = {f: self.records[k::width] for k, f in enumerate(FIELDS)}
        position = array("q", bytes(8 * len(by_end["idx"])))
        for pos, idx in enumerate(by_end["idx"]):
            position[idx] = pos
        return {f: array("q", (col[p] for p in position)) for f, col in by_end.items()}

    def metrics(self, spans):
        """Per-layer metrics (without the trace.* summary), per op."""
        ops = self.ops or 1
        n = len(SPECS)
        calls, self_ns = [0] * n, [0] * n
        sum_a, sum_b, max_a = [0] * n, [0] * n, [0] * n
        for k, s, x, y in zip(spans["name"], self_times(spans), spans["a"], spans["b"]):
            calls[k] += 1
            self_ns[k] += s
            sum_a[k] += x
            sum_b[k] += y
            max_a[k] = max(max_a[k], x)
        out = {}
        for k, spec in enumerate(SPECS):
            for stat in spec.stats:
                if stat in ("calls", "constructed"):
                    value = calls[k] / ops
                elif stat == "self_s":
                    value = self_ns[k] / 1e9 / ops
                elif stat == "max_bits":
                    value = max_a[k]
                elif stat in RATIOS:
                    value = sum_a[k] / sum_b[k] if sum_b[k] else 0.0
                else:
                    value = sum_a[k] / ops
                out[f"{spec.layer}.{spec.label or spec.name}.{stat}"] = value
        for (layer, _, label), count in zip(COUNTED, self.counts):
            out[f"{layer}.{label}"] = count / ops
        return out


def write_spans(spans, path):
    """Write spans as gzipped TSV, one line per span in id order, with
    the span's name in place of its name index."""
    names = [f"{s.layer}.{s.name}" for s in SPECS]
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("\t".join(FIELDS) + "\n")
        for row in zip(*(spans[f] for f in FIELDS)):
            fh.write(f"{row[0]}\t{names[row[1]]}\t" + "\t".join(map(str, row[2:])) + "\n")
