"""Problem definitions and data transformations.

The solver pipeline only handles zero obstacles; general smooth obstacles
are shifted away by replacing the data (chi, g, f) with
(0, g - chi|_Gamma, f + Laplace(chi)).  The shifted solution plus chi
solves the original problem.
"""

import ast
import functools
import json
from dataclasses import dataclass, fields

import numpy as np

from .boundary import interpolate_boundary
from .fem import assemble_load, assemble_stiffness, energy
from .mesh import LShape, Square, build_initial_mesh, refine
from .vi import BOUNDARY_TOL, solve_obstacle

__all__ = [
    "Obstacle",
    "ProblemSpec",
    "to_zero_obstacle",
    "example1",
    "example2",
    "reference_energy",
    "load_custom",
]


@dataclass
class Obstacle:
    """Smooth obstacle with analytically supplied Laplacian."""

    value: callable
    laplacian: callable


@dataclass
class ProblemSpec:
    """Data triple (chi, g, f) plus domain and optional exact energy."""

    name: str
    domain: object
    g: callable
    f: callable
    chi: Obstacle = None
    exact_energy: float = None


# Points per coarse boundary edge, both ends included, checked for g - chi.
_SAMPLES_PER_EDGE = 51


def _sample_boundary(domain):
    mesh = build_initial_mesh(domain)
    p, q = mesh.nodes[mesh.edges[mesh.is_boundary_edge].T]
    s = np.linspace(0.0, 1.0, _SAMPLES_PER_EDGE)[:, None, None]
    return (p + s * (q - p)).reshape(-1, 2)


def to_zero_obstacle(problem):
    """Problem with the same domain and the data shifted so that the
    obstacle is identically zero (``problem`` itself if it has none).

    Requires an analytic Laplacian of chi; raises if g - chi|_Gamma, with
    chi = 0 if there is none, is not finite or turns negative beyond
    tolerance at ``_SAMPLES_PER_EDGE`` points per coarse boundary edge.
    """
    chi = problem.chi
    if chi is not None and chi.laplacian is None:
        raise ValueError("obstacle transformation requires an analytic "
                         "Laplacian of chi")
    g = problem.g if chi is None else (
        lambda x, y: problem.g(x, y) - chi.value(x, y))
    pts = _sample_boundary(problem.domain)
    vals = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("Dirichlet data g is not finite" if chi is None
                         else "shifted Dirichlet data g - chi are not finite")
    if np.min(vals, initial=0.0) < -BOUNDARY_TOL:
        raise ValueError("g < 0 on the boundary" if chi is None else
                         "chi > g on the boundary: shifted Dirichlet data "
                         "negative")
    if chi is None:
        return problem
    base_f = problem.f

    def f(x, y):
        return np.asarray(base_f(x, y), dtype=float) \
            + np.asarray(chi.laplacian(x, y), dtype=float)

    return ProblemSpec(name=problem.name, domain=problem.domain, g=g, f=f)


# -- Example 1: constant obstacle on the square -------------------------

_HALF_WIDTH = 1.5  # of the square (-1.5, 1.5)^2


def _example1_solution(x, y):
    r = np.hypot(x, y)
    rs = np.maximum(r, 1.0)
    return np.where(r >= 1.0, 0.5 * rs ** 2 - np.log(rs) - 0.5, 0.0)


# Energy of the exact solution: by the square's 8-fold symmetry
# J(u) = 8 int_0^{pi/4} [F(1.5 sec phi) - F(1)] dphi with the radial
# antiderivative F(r) = 3r^4/8 - r^2/2 + (1/2 - r^2) ln r of r times the
# energy density (which vanishes for r < 1); int_0^{pi/4} ln cos phi dphi
# = G/2 - (pi/4) ln 2 and int_0^1 ln(1 + t^2) dt = ln 2 - 2 + pi/2 give
# the closed form, with G = 0.9159655941772190... Catalan's constant.
_EXAMPLE1_ENERGY = float(117 / 4 - 17 * np.pi / 4 + np.pi * np.log(3.0)
                         - 2 * 0.915965594177219015 - 9 * np.log(4.5))


def example1():
    """Constant zero obstacle on (-1.5, 1.5)^2 with f = -2; g is the
    known radial solution u, defined on the whole square."""
    return ProblemSpec(
        name="example1",
        domain=Square(-_HALF_WIDTH, -_HALF_WIDTH, _HALF_WIDTH, _HALF_WIDTH),
        g=_example1_solution,
        f=lambda x, y: np.full_like(np.asarray(x, dtype=float), -2.0),
        chi=None,
        exact_energy=_EXAMPLE1_ENERGY,
    )


# -- Example 2: sinusoidal obstacle on the L-shape ----------------------

_SHIFT = 1.0 - np.pi / 10.0


def _chi_value(x, y):
    x = np.asarray(x, dtype=float)
    val = 0.1 * (np.sin(5.0 * (x + _SHIFT)) + 1.0)
    return np.where(x < -1.0, val, 0.0) + 0.0 * np.asarray(y, dtype=float)


def _chi_laplacian(x, y):
    x = np.asarray(x, dtype=float)
    left = x < -1.0
    val = np.zeros(x.shape)
    val[left] = -2.5 * np.sin(5.0 * (x[left] + _SHIFT))
    return val + 0.0 * np.asarray(y, dtype=float)


def _in_ring(r):
    """Where the quintic cutoff varies: 1/4 <= r < 3/4."""
    rb = 2.0 * (r - 0.25)
    return (rb >= 0.0) & (rb < 1.0)


def _gamma1_derivatives(r):
    """First and second radial derivatives of the quintic cutoff."""
    inside = _in_ring(r)
    rb = np.where(inside, 2.0 * (r - 0.25), 0.0)
    d1 = 2.0 * (-30.0 * rb ** 4 + 60.0 * rb ** 3 - 30.0 * rb ** 2)
    d2 = 4.0 * (-120.0 * rb ** 3 + 180.0 * rb ** 2 - 60.0 * rb)
    return np.where(inside, d1, 0.0), np.where(inside, d2, 0.0)


def _example2_f(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    r = np.hypot(x, y)
    # the singular part is computed where the cutoff varies; at other
    # finite points it is the zero -0.0 * s, and s can carry a minus
    # sign only where x and y both do
    at = _in_ring(r) | (np.signbit(x) & np.signbit(y)) | np.isinf(r)
    ra = r[at]
    # polar angle measured from the reentrant edge (negative y-axis),
    # counterclockwise over the interior angle 3*pi/2
    phi = np.arctan2(y[at], x[at]) + 0.5 * np.pi
    s = np.sin(2.0 * phi / 3.0)
    d1, d2 = _gamma1_derivatives(ra)
    rs = np.where(ra > 0.0, ra, 1.0)
    singular = np.full(r.shape, -0.0)
    singular[at] = -rs ** (2.0 / 3.0) * s * (d1 / rs + d2) \
        - (4.0 / 3.0) * rs ** (-1.0 / 3.0) * d1 * s
    gamma2 = np.where(r > 1.25, 1.0, 0.0)
    return np.where(r >= 0.25, singular, 0.0) - gamma2


def example2():
    """Sinusoidal obstacle on the L-shape; boundary data are the trace of
    the obstacle, so the transformed problem has zero Dirichlet data."""
    return ProblemSpec(
        name="example2",
        domain=LShape(),
        g=_chi_value,
        f=_example2_f,
        chi=Obstacle(value=_chi_value, laplacian=_chi_laplacian),
    )


# -- reference energies -------------------------------------------------

def reference_energy(problem, n_target):
    """Energy of the Galerkin solution on the finest uniform mesh with at
    most ``n_target`` elements; raises if the coarse mesh has more."""
    tp = to_zero_obstacle(problem)
    mesh = build_initial_mesh(problem.domain)
    if mesh.num_triangles > n_target:
        raise ValueError(f"reference target of {n_target} elements is below "
                         f"the {mesh.num_triangles}-element coarse mesh")
    active = None
    while True:
        gl = interpolate_boundary(tp.g, mesh)
        load = assemble_load(mesh, tp.f)
        stiffness = assemble_stiffness(mesh)
        sol = solve_obstacle(mesh, stiffness, load, gl, warm_active=active)
        value = energy(stiffness, load, sol.values)
        if not np.isfinite(value):
            raise ValueError(f"reference level {mesh.level}: energy is not "
                             "finite")
        if mesh.num_triangles * 4 > n_target:
            break
        del gl, stiffness, load
        mesh = refine(mesh, np.arange(mesh.num_edges))
        # a new node starts active where both ends of its parent edge were
        parents = mesh.node_parents[mesh.level_nodes[-2]:]
        active = np.r_[sol.active, sol.active[parents].all(axis=1)]
    return value


# -- custom problems ----------------------------------------------------

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "ln": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "hypot": np.hypot, "arctan2": np.arctan2, "where": np.where,
    "maximum": np.maximum, "minimum": np.minimum, "pi": np.pi,
}
# float64 arguments: numpy runs sin of a comparison in float16
_EXPR_ENV = dict(_EXPR_NAMES, **{
    k: functools.partial(_EXPR_NAMES[k], dtype=float)
    for k in "sin cos tan exp log ln sqrt hypot arctan2".split()})

# Syntax an expression may use besides names, numbers and calls:
# arithmetic, bitwise and/or (to combine comparisons inside ``where``)
# and comparisons.
_EXPR_NODES = (
    ast.Expression, ast.Load, ast.BinOp, ast.Add, ast.Sub, ast.Mult,
    ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.BitAnd, ast.BitOr,
    ast.UnaryOp, ast.UAdd, ast.USub, ast.Compare, ast.Eq, ast.NotEq,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)


def _rejection(node, callees):
    """Why ``node`` leaves the whitelist, or None.  The whitelist: the
    names x, y, r and pi; numbers; ``_EXPR_NODES``, one operator per
    comparison; keyword-free calls, by name (``callees``: a function is
    no value), of the functions of ``_EXPR_NAMES`` with their count of
    arguments: a ufunc's ``nin`` (so never ``out``), 3 for ``where``."""
    if isinstance(node, ast.Call):
        fn = _EXPR_NAMES.get(getattr(node.func, "id", None))
        if callable(fn) and not node.keywords:
            n, arity = len(node.args), getattr(fn, "nin", 3)
            return None if n == arity else (f"{node.func.id} takes {arity} "
                                            f"argument(s), not {n}")
    elif isinstance(node, ast.Name):
        if callable(_EXPR_NAMES.get(node.id)) and node not in callees:
            return f"function {node.id} is not called"
        if node.id in ("x", "y", "r") or node.id in _EXPR_NAMES:
            return None
    elif isinstance(node, ast.Compare) and len(node.ops) > 1:
        return "a comparison takes one operator"
    elif isinstance(node, _EXPR_NODES) or isinstance(node, ast.Constant) \
            and type(node.value) in (int, float):
        return None
    return f"{type(node).__name__} is not allowed"


def _compile_expr(expr):
    try:  # parse and compile recurse once per level of the tree
        tree = ast.parse(expr, "<problem config>", mode="eval")
        callees = {n.func for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            why = _rejection(node, callees)
            if why:
                raise ValueError(f"expression {expr!r}: {why}")
            if isinstance(node, ast.Constant):
                # floats only: no big-int arithmetic; a huge literal is inf
                node.value = float(str(node.value))
        code = compile(tree, "<problem config>", "eval")
    except RecursionError:
        raise ValueError(f"expression {expr!r}: nested too deeply") from None

    def fn(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        # non-finite values are reported by the callers' checks
        try:
            with np.errstate(all="ignore"):
                env = dict(_EXPR_ENV, x=x, y=y, r=np.hypot(x, y))
                # a complex value is a type error, not cast to its real part
                return np.asarray(eval(code, {"__builtins__": {}}, env)
                                  ).astype(float, casting="same_kind")
        except ArithmeticError as exc:
            raise ValueError(f"expression {expr!r}: {exc}") from None

    return fn


_JSON_NAMES = {dict: "an object", str: "a string", float: "a number",
               int: "an integer", type(None): "null"}


def check_layout(obj, layout):
    """``obj``, a dict, if each key is in ``layout``, ``{key: allowed
    types}``, with a value of one of them (an integer is a number)."""
    for key, val in obj.items():
        if key not in layout:
            raise ValueError(f"unknown key {key!r}")
        if type(val) not in layout[key]:
            kinds = [_JSON_NAMES[t] for t in layout[key]
                     if t is not int or float not in layout[key]]
            raise ValueError(f"key {key!r} must be {' or '.join(kinds)}")
    return obj


def read_json(path, layout, same_key=lambda key: key):
    """The JSON object in the file ``path``, checked by ``check_layout``.
    Two keys of one object with the same ``same_key``, and nesting past
    the recursion limit, raise ValueError."""
    def unique(pairs):
        first = {}  # each same_key value: the index of its first key
        for i, (key, _) in enumerate(pairs):
            if first.setdefault(same_key(key), i) != i:
                raise ValueError(f"key {key!r} is given twice")
        return dict(pairs)

    with open(path) as fh:
        try:
            obj = json.load(fh, object_pairs_hook=unique)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if type(obj) is not dict:
        raise ValueError("the file must hold a JSON object")
    return check_layout(obj, layout)


def load_custom(path):
    """Problem from a JSON config with expression-valued data.

    Expressions use ``x``, ``y``, ``r``, ``pi``, numbers, arithmetic,
    one-operator comparisons, ``&``/``|`` and calls of the functions in
    ``_EXPR_NAMES`` (see ``_rejection``); anything else, a value of the
    wrong type at the coarse mesh's nodes, and a file that ``read_json``
    or ``check_layout`` rejects for this layout raise ValueError::

        {"name": "text",                                  # optional
         "domain": {"type": "square", "xmin": 0, ...} | {"type": "lshape"},
         "f": "expr", "g": "expr",
         "chi": {"value": "expr", "laplacian": "expr"}}   # optional
    """
    cfg = read_json(path, {"name": (str,), "domain": (dict,), "f": (str,),
                           "g": (str,), "chi": (dict,)})
    dom = cfg["domain"]
    kind = check_layout({"type": dom.pop("type")}, {"type": (str,)})["type"]
    shape = {"square": Square, "lshape": LShape}.get(kind)
    if shape is None:
        raise ValueError(f"unknown domain type {kind!r}")
    domain = shape(**check_layout(dom, {f.name: (float, int)
                                        for f in fields(shape)}))

    nodes = build_initial_mesh(domain).nodes.T

    def expr(obj, key):
        fn = _compile_expr(obj[key])
        try:
            fn(*nodes)  # a type error does not depend on the points
        except TypeError as exc:
            raise ValueError(f"expression {obj[key]!r}: {exc}") from None
        except ValueError:
            pass  # an arithmetic error: the run's numerical failure
        return fn

    chi = None
    if "chi" in cfg:
        check_layout(cfg["chi"], {"value": (str,), "laplacian": (str,)})
        chi = Obstacle(value=expr(cfg["chi"], "value"),
                       laplacian=expr(cfg["chi"], "laplacian"))
    return ProblemSpec(
        name=cfg.get("name", "custom"),
        domain=domain,
        g=expr(cfg, "g"),
        f=expr(cfg, "f"),
        chi=chi,
    )
