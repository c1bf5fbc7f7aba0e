"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by wrapping a module attribute at the place where the
caller looks it up (``obstacle_afem.adapt.solve_obstacle`` is what
``adapt._run`` calls), so no source under ``src/`` changes.  A target
that no longer exists is recorded as absent instead of failing, so the
traced run keeps working when a later change deletes or moves a
function.
"""

import importlib
import time

# Loop functions: each call is one Solve-Estimate-Mark-Refine loop.
LOOPS = ("adapt.run_adaptive", "adapt.run_uniform",
         "problems.reference_energy")

# The phases of one level, called by both loops (adapt._run and
# problems.reference_energy) through their own module globals.
_PHASES = [
    ("to_zero_obstacle", "problems.transform"),
    ("build_initial_mesh", "mesh.initial"),
    ("interpolate_boundary", "boundary.interpolate"),
    ("assemble_stiffness", "fem.stiffness"),
    ("assemble_load", "fem.load"),
    ("solve_obstacle", "vi.solve"),
    ("energy", "fem.energy"),
    ("refine", "mesh.refine"),
]

# (module, attribute, span name); the loop functions come first so that
# the phase wrappers see them as parents.
TARGETS = (
    [("obstacle_afem.adapt", "run_adaptive", "adapt.run_adaptive"),
     ("obstacle_afem.adapt", "run_uniform", "adapt.run_uniform"),
     ("obstacle_afem.problems", "reference_energy",
      "problems.reference_energy")]
    + [("obstacle_afem.problems", attr, name) for attr, name in _PHASES]
    + [("obstacle_afem.adapt", attr, name) for attr, name in _PHASES]
    + [("obstacle_afem.adapt", "assemble_indicators", "estimator.assemble"),
       ("obstacle_afem.adapt", "energy_norm_diff", "fem.energy_norm_diff"),
       ("obstacle_afem.adapt", "prolong", "fem.prolong"),
       ("obstacle_afem.adapt", "dorfler_mark", "adapt.mark"),
       ("obstacle_afem.vi", "cg_solve", "fem.cg"),
       ("obstacle_afem.estimator", "apx_indicator", "boundary.apx"),
       ("obstacle_afem.estimator", "triangle_points", "quadrature.points"),
       ("obstacle_afem.fem", "triangle_points", "quadrature.points"),
       ("obstacle_afem.mesh", "Mesh", "mesh.construct")]
)


def _solve_info(args, result):
    return {"iters": int(result.iterations),
            "active": int(result.active.sum()),
            "N": int(args[0].num_triangles)}


# Counts read off a call's arguments and result after its span closed.
INFO = {
    "vi.solve": _solve_info,
    "fem.stiffness": lambda args, result: {"nnz": int(result.nnz)},
    "mesh.refine": lambda args, result: {"marked": len(args[1])},
    "mesh.construct":
        lambda args, result: {"triangles": int(result.num_triangles)},
}


class Span:
    __slots__ = ("name", "parent", "level", "start", "end", "info")

    def __init__(self, name, parent, level):
        self.name = name
        self.parent = parent
        self.level = level
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


def _mesh_level(args):
    """Finest mesh level among the arguments (a mesh, or an object with
    a ``.mesh``), or None when no argument carries one."""
    found = None
    for arg in args:
        level = getattr(getattr(arg, "mesh", arg), "level", None)
        if isinstance(level, int) and (found is None or level > found):
            found = level
    return found


class Tracer:
    """Wraps callables, records nested spans in memory, and restores the
    original attributes on :meth:`restore`."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._level = 0
        self._undo = []

    def install(self, targets=TARGETS):
        for module_name, attr, name in targets:
            self.wrap(module_name, attr, name)
        return self

    def wrap(self, module_name, attr, name):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return
        info = INFO.get(name)
        is_loop = name in LOOPS
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if is_loop:
                self._level = 0
            level = _mesh_level(args)
            if level is None:
                level = self._level
            else:
                self._level = level
            span = Span(name, stack[-1] if stack else -1, level)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans):
    """Per-layer metrics of one traced workload run, keyed by metric name.

    Times are in seconds.  A metric whose target is absent reads 0.
    """
    own = self_times(spans)
    total = {}
    self_total = {}
    count = {}
    for s, o in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + o
        count[s.name] = count.get(s.name, 0) + 1

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def own_t(*names):
        return sum(self_total.get(n, 0.0) for n in names)

    adapt_loops = {i for i, s in enumerate(spans)
                   if s.name in ("adapt.run_adaptive", "adapt.run_uniform")}
    solves = [s for s in spans if s.name == "vi.solve"]
    adapt_solves = [s for s in solves if s.parent in adapt_loops]
    adapt_refines = [s for s in spans
                     if s.name == "mesh.refine" and s.parent in adapt_loops]
    return {
        "vi.solve_s": t("vi.solve"),
        "vi.pdas_iters": sum(s.info["iters"] for s in solves),
        "vi.active_nodes_final": solves[-1].info["active"] if solves else 0,
        "fem.cg_s": t("fem.cg"),
        "fem.cg_calls": count.get("fem.cg", 0),
        "mesh.refine_s": t("mesh.refine"),
        "mesh.construct_s": t("mesh.construct"),
        "mesh.refine_self_s": own_t("mesh.refine"),
        "mesh.elements_total": sum(s.info["triangles"] for s in spans
                                   if s.name == "mesh.construct"),
        "estimator.assemble_s": t("estimator.assemble"),
        "estimator.self_s": own_t("estimator.assemble"),
        "boundary.apx_s": t("boundary.apx"),
        "boundary.apx_calls": count.get("boundary.apx", 0),
        "boundary.interpolate_s": t("boundary.interpolate"),
        "fem.stiffness_s": t("fem.stiffness"),
        "fem.load_s": t("fem.load"),
        "fem.energy_s": t("fem.energy", "fem.energy_norm_diff",
                          "fem.prolong"),
        "fem.nnz_total": sum(s.info["nnz"] for s in spans
                             if s.name == "fem.stiffness"),
        "quadrature.points_s": t("quadrature.points"),
        "adapt.levels": len(adapt_solves),
        "adapt.mark_s": t("adapt.mark"),
        "adapt.marked_edges": sum(s.info["marked"] for s in adapt_refines),
        "adapt.self_s": own_t("adapt.run_adaptive", "adapt.run_uniform"),
        "problems.reference_energy_s": t("problems.reference_energy"),
        "problems.transform_s": t("problems.transform"),
    }


# Phase-table columns: span names of the top-level phases in one level.
COLUMNS = [
    ("setup", ("problems.transform", "mesh.initial")),
    ("trace", ("boundary.interpolate",)),
    ("stiff", ("fem.stiffness",)),
    ("load", ("fem.load",)),
    ("solve", ("vi.solve",)),
    ("estim", ("estimator.assemble",)),
    ("energy", ("fem.energy", "fem.energy_norm_diff", "fem.prolong")),
    ("mark", ("adapt.mark",)),
    ("refine", ("mesh.refine",)),
]


def phase_rows(spans):
    """One row per (loop, level): milliseconds per phase, the loop's own
    time in that level (``other``) and the level's wall time.

    A level runs from its first phase's start to the next level's first
    phase (or the loop's end), so marking and refinement are included.
    """
    column_of = {n: col for col, names in COLUMNS for n in names}
    rows = []
    for li, loop in enumerate(spans):
        if loop.name not in LOOPS:
            continue
        children = [s for s in spans if s.parent == li]
        levels = sorted({s.level for s in children})
        first = {lv: min(s.start for s in children if s.level == lv)
                 for lv in levels}
        for k, lv in enumerate(levels):
            begin = loop.start if k == 0 else first[lv]
            end = first[levels[k + 1]] if k + 1 < len(levels) else loop.end
            row = {"loop": loop.name, "level": lv, "N": 0, "iters": 0,
                   "marked": 0}
            row.update({col: 0.0 for col, _ in COLUMNS})
            for s in children:
                if s.level != lv:
                    continue
                col = column_of.get(s.name)
                if col is not None:
                    row[col] += s.duration * 1e3
                if s.name == "vi.solve":
                    row["N"], row["iters"] = s.info["N"], s.info["iters"]
                elif s.name == "mesh.refine":
                    row["marked"] = s.info["marked"]
            row["level_ms"] = (end - begin) * 1e3
            row["other"] = row["level_ms"] - sum(row[c] for c, _ in COLUMNS)
            rows.append(row)
    return rows


def format_phase_table(rows):
    cols = [c for c, _ in COLUMNS] + ["other", "level_ms"]
    head = (f"{'loop':<26} {'lvl':>3} {'N':>7} {'iters':>5} {'marked':>7} "
            + " ".join(f"{c:>8}" for c in cols))
    lines = [head]
    for r in rows:
        lines.append(
            f"{r['loop']:<26} {r['level']:>3} {r['N']:>7} {r['iters']:>5} "
            f"{r['marked']:>7} "
            + " ".join(f"{r[c]:>8.1f}" for c in cols))
    loops = sorted({r["loop"] for r in rows})
    for loop in loops:
        sub = [r for r in rows if r["loop"] == loop]
        wall = sum(r["level_ms"] for r in sub)
        shares = " ".join(
            f"{c}={100 * sum(r[c] for r in sub) / wall:.1f}%"
            for c in cols[:-1])
        lines.append(f"{loop} shares of {wall:.0f} ms: {shares}")
    return lines


def top_level_seconds(spans):
    """Total duration of the phase spans directly under a loop span."""
    loops = {i for i, s in enumerate(spans) if s.name in LOOPS}
    return sum(s.duration for s in spans if s.parent in loops)
