"""Source-level guards over ``src/drinfeld``.

``tuple(<generator>)`` and ``tuple(map(...))`` build a tuple of a
guessed size and resize it; CPython then frees it onto the free list of
its final size, so sizes fill toward the 2,000-tuple cap while the list
of the guessed size drains, and resident memory grows.  Tuples are built
from lists instead.

A = F_q[t] has one representation, ``FqPoly`` on integer codes; the
generic ``Poly`` serves the nested rings only, so it must not grow a
second F_q path that unwraps or rewraps codes.

``Poly`` and ``SkewPoly`` share one container, ``poly.Dense``: neither
class body defines again a name the core defines.  The core is also the
one Ore-ring loop for R[x] and R{tau}: neither class body holds a loop
for its sums, products or division, and ``Poly.__divmod__`` and
``SkewPoly.right_divmod`` are one function.  Likewise ``FFElem``,
``RatFunc`` and ``ExtElem`` inherit ``ff.FieldElem``, with its truth,
``-``, ``/`` and operand rule ``_coerce``, and ``PolyRing`` and
``SkewPolyRing`` inherit ``poly.DenseRing``, and define none of its
names.  ``FqPoly`` and ``FqPolyRing`` are exempt from the ``Dense``
guards, since they run on codes.  ``FFElem``, ``RatFunc`` and
``ExtElem`` are the only ``FieldElem`` classes: ``ExtElem`` is the one
quotient element, of F[x]/(m) and of A/l alike.

Invariant checks raise ``InvariantViolation`` (a ``DrinfeldError``):
``python -O`` strips an ``assert``, and a bare ``AssertionError`` or
``ArithmeticError`` escapes the CLI's error handling.

Rounding lives in one module: only ``bounds.py`` imports ``mpmath``, so
every real bound is evaluated and rounded up in one place.  Verdicts live
there too: only ``bounds.py`` builds a ``BoundReport``, so no other
module decides a real bound on a payload float.

Newton polygons have one primitive, ``places.newton_slopes``: only
``places.py`` builds a hull, and ``extfield`` reads rational roots and
irreducibility certificates off it, with no divisor-pair enumeration
(``_monic_divisors``) or Eisenstein test (``_eisenstein``) of its own.

Local heights have one path: ``dmod`` reads every h_G^v off its one
per-place table, so it imports neither ``valuation`` nor ``log_abs``
from ``places``, and reads neither off the module.

``isogeny.minimal_N`` has one path to N, the minimal polynomial of a
Krylov pass: ``isogeny.py`` imports no ``monic_polys_of_degree`` and
reads none off ``factor``, so no search over monic N can come back.

Every name in ``drinfeld.__all__`` is an attribute of the package, so an
entry left behind by a deletion cannot break ``from drinfeld import *``.
"""

import ast
import types
from pathlib import Path

import drinfeld

SRC = Path(__file__).resolve().parent.parent / "src" / "drinfeld"


def _resized_tuple_calls(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
            and not node.keywords
        ):
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "map"
            ):
                yield node.lineno


def test_no_tuple_from_generator_or_map():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _resized_tuple_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert SRC.is_dir() and not found, found


def test_guard_sees_both_forms():
    tree = ast.parse(
        "a = tuple(x for x in y)\nb = tuple(map(f, y))\nc = tuple([x for x in y])"
    )
    assert list(_resized_tuple_calls(tree)) == [1, 2]


def _fq_mentions(cls):
    """Names in a class body that belong to the F_q code representation."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Name) and node.id == "GaloisField":
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr in ("code", "codes", "_from_codes"):
            yield node.attr
        elif isinstance(node, ast.FunctionDef) and node.name == "_from_codes":
            yield node.name


def test_generic_poly_has_no_fq_path():
    tree = ast.parse((SRC / "poly.py").read_text())
    (poly,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Poly"]
    assert not list(_fq_mentions(poly))


def test_fq_guard_sees_each_mention():
    tree = ast.parse(
        "class Poly:\n"
        "    def _from_codes(self, codes):\n"
        "        return isinstance(self.ring.base, GaloisField), codes[0].code\n"
    )
    assert sorted(_fq_mentions(tree.body[0])) == ["GaloisField", "_from_codes", "code"]


def _classes(*names):
    """The top-level classes of the named source files, by name."""
    classes = {}
    for name in names:
        tree = ast.parse((SRC / name).read_text())
        classes.update({n.name: n for n in tree.body if isinstance(n, ast.ClassDef)})
    return classes


def _defined_names(cls):
    """Names a class body binds, methods and assignments, __slots__ aside."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names - {"__slots__"}


def _core_redefinitions(classes, core):
    """(class, name) for each name of the core a class body defines again."""
    shared = _defined_names(core)
    return sorted((cls.name, name) for cls in classes for name in _defined_names(cls) & shared)


def test_dense_kinds_inherit_the_core():
    classes = _classes("poly.py", "skew.py")
    core = classes["Dense"]
    assert _defined_names(core) >= {"__init__", "coeff", "__eq__", "__hash__", "__neg__"}
    assert not _core_redefinitions([classes["Poly"], classes["SkewPoly"]], core)


def test_core_guard_sees_a_redefinition():
    tree = ast.parse(
        "class Dense:\n"
        "    __slots__ = ('ring', 'coeffs')\n"
        "    def coeff(self, i): pass\n"
        "    def __neg__(self): pass\n"
        "class Poly(Dense):\n"
        "    __slots__ = ()\n"
        "    def coeff(self, i): pass\n"
        "    def degree(self): pass\n"
    )
    core, poly = tree.body
    assert _core_redefinitions([poly], core) == [("Poly", "coeff")]


_ARITHMETIC = ("__add__", "__sub__", "__mul__", "__divmod__", "right_divmod")


def _arithmetic_loops(cls):
    """(class, method) for each sum, product or division method that a
    class body defines with a for or while loop or a comprehension."""
    loops = (ast.For, ast.While, ast.comprehension)
    return sorted(
        (cls.name, node.name)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in _ARITHMETIC
        and any(isinstance(n, loops) for n in ast.walk(node))
    )


def test_dense_kinds_share_the_arithmetic_loops():
    from drinfeld.poly import Poly
    from drinfeld.skew import SkewPoly

    classes = _classes("poly.py", "skew.py")
    assert not _arithmetic_loops(classes["Poly"]) + _arithmetic_loops(classes["SkewPoly"])
    assert Poly.__divmod__ is SkewPoly.right_divmod


def test_loop_guard_sees_each_form():
    tree = ast.parse(
        "class SkewPoly:\n"
        "    def __add__(self, other):\n"
        "        return self.ring.from_coeffs([a + b for a, b in zip(self, other)])\n"
        "    def __mul__(self, other):\n"
        "        for c in other: pass\n"
        "    def right_divmod(self, b):\n"
        "        while b: pass\n"
        "    def __sub__(self, other):\n"
        "        return self + (-other)\n"
        "    def evaluate(self, x):\n"
        "        for c in self: pass\n"
        "    right_divmod = Dense._divmod\n"
    )
    assert _arithmetic_loops(tree.body[0]) == [
        ("SkewPoly", "__add__"), ("SkewPoly", "__mul__"), ("SkewPoly", "right_divmod")
    ]


def _core_strays(classes, core):
    """Classes that do not name the core as a base, and the core names
    each class body defines again."""
    orphans = [cls.name for cls in classes if core.name not in [ast.unparse(b) for b in cls.bases]]
    return orphans + _core_redefinitions(classes, core)


def test_fields_and_rings_inherit_their_cores():
    classes = _classes("ff.py", "poly.py", "skew.py", "ratfunc.py", "extfield.py")
    elem, ring = classes["FieldElem"], classes["DenseRing"]
    assert _defined_names(elem) >= {"_coerce", "__sub__", "__rtruediv__", "exact_div"}
    assert _defined_names(ring) >= {"from_coeffs", "gen", "monomial", "constant"}
    assert not _core_strays([classes["FFElem"], classes["RatFunc"], classes["ExtElem"]], elem)
    assert not _core_strays([classes["PolyRing"], classes["SkewPolyRing"]], ring)


def test_core_guard_sees_a_stray():
    tree = ast.parse(
        "class DenseRing:\n"
        "    def gen(self): pass\n"
        "class PolyRing(DenseRing):\n"
        "    def __call__(self, value): pass\n"
        "class SkewPolyRing(DenseRing):\n"
        "    tau = gen = DenseRing.gen\n"
        "class QuotientRing:\n"
        "    def __call__(self, value): pass\n"
    )
    core, *classes = tree.body
    assert _core_strays(classes, core) == ["QuotientRing", ("SkewPolyRing", "gen")]


def _subclasses(trees, core):
    """Names of the classes, at any depth, with a base named core,
    qualified or not."""
    return sorted(
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and core in [ast.unparse(b).rpartition(".")[2] for b in node.bases]
    )


def test_one_element_class_per_kind_of_field():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    assert _subclasses(trees, "FieldElem") == ["ExtElem", "FFElem", "RatFunc"]


def test_subclass_guard_sees_an_extra_subclass():
    tree = ast.parse(
        "class ExtElem(FieldElem): pass\n"
        "class Residue(ff.FieldElem): pass\n"
        "def reduce():\n"
        "    class Local(object, FieldElem): pass\n"
        "class Other(FieldElemBase): pass\n"
    )
    assert _subclasses([tree], "FieldElem") == ["ExtElem", "Local", "Residue"]


def _bare_checks(tree):
    """Lines of assert statements and of raises of AssertionError or
    ArithmeticError, called or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("AssertionError", "ArithmeticError"):
                yield node.lineno


def test_no_assert_or_bare_check_errors():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _bare_checks(ast.parse(path.read_text(), str(path)))
    ]
    assert SRC.is_dir() and not found, found


def test_bare_check_guard_sees_each_form():
    tree = ast.parse(
        "assert x\n"
        "raise AssertionError('a')\n"
        "raise AssertionError\n"
        "raise ArithmeticError('b')\n"
        "raise ArithmeticError\n"
        "raise ValueError('c')\n"
        "raise\n"
    )
    assert list(_bare_checks(tree)) == [1, 2, 3, 4, 5]


def _mpmath_imports(tree):
    """Lines of imports of mpmath or of any of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "mpmath" or name.startswith("mpmath.") for name in names):
            yield node.lineno


def test_only_bounds_imports_mpmath():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "bounds.py"
        for line in _mpmath_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert (SRC / "bounds.py").is_file() and not found, found


def test_mpmath_guard_sees_each_form():
    tree = ast.parse(
        "import mpmath\n"
        "from mpmath import iv\n"
        "from mpmath.ctx_iv import MPIntervalContext\n"
        "import os, mpmath.libmp as libmp\n"
        "def f():\n"
        "    import mpmath\n"
        "import mpmathx\n"
        "from .bounds import mpmath\n"
    )
    assert list(_mpmath_imports(tree)) == [1, 2, 3, 4, 6]


def _bound_report_calls(tree):
    """Lines of calls of BoundReport, by name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "BoundReport":
                yield node.lineno


def test_only_bounds_builds_a_bound_report():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "bounds.py"
        for line in _bound_report_calls(ast.parse(path.read_text(), str(path)))
    ]
    bounds_tree = ast.parse((SRC / "bounds.py").read_text())
    assert list(_bound_report_calls(bounds_tree)) and not found, found


def test_bound_report_guard_sees_each_form():
    tree = ast.parse(
        "a = BoundReport(1, 2.0, {})\n"
        "b = bounds_mod.BoundReport(h, rows[0]['prop65_bound'], {}).satisfied\n"
        "from .bounds import BoundReport\n"
        "c = BoundReport\n"
        "d = BoundReports(1, 2, {})\n"
        "def f():\n"
        "    return drinfeld.bounds.BoundReport(0, 1, {})\n"
    )
    assert list(_bound_report_calls(tree)) == [1, 2, 7]


def _hulls(tree):
    """Lines of functions defined, and of names bound, that mention a
    Newton polygon or a hull."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        else:
            continue
        if "newton" in name.lower() or "hull" in name.lower():
            yield node.lineno


def test_one_newton_polygon_primitive():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}:{line}" for name, tree in trees.items() if name != "places.py" for line in _hulls(tree)]
    extfield = {n.name for n in trees["extfield.py"].body if isinstance(n, ast.FunctionDef)}
    assert list(_hulls(trees["places.py"])) and not found, found
    assert "rational_roots" in extfield and not extfield & {"_monic_divisors", "_eisenstein"}


def test_hull_guard_sees_each_form():
    tree = ast.parse(
        "def newton_polygon(f): pass\n"
        "def _upper_Hull(points): pass\n"
        "hull = []\n"
        "for newton_pt in pts: pass\n"
        "x = hull\n"
        "def slopes(f): pass\n"
    )
    assert list(_hulls(tree)) == [1, 2, 3, 4]


_PER_PLACE_DIVISIONS = ("valuation", "log_abs", "*")


def _per_place_divisions(tree):
    """Lines that import valuation or log_abs (or *) from a places module,
    or read either off a name ``places``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "places":
            if any(alias.name in _PER_PLACE_DIVISIONS for alias in node.names):
                yield node.lineno
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _PER_PLACE_DIVISIONS
            and isinstance(node.value, ast.Name)
            and node.value.id == "places"
        ):
            yield node.lineno


def test_dmod_has_one_local_height_path():
    tree = ast.parse((SRC / "dmod.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "places"
        for alias in node.names
    }
    assert "Place" in imported and not list(_per_place_divisions(tree))


def test_local_height_guard_sees_each_form():
    tree = ast.parse(
        "from .places import Place, valuation\n"
        "from .places import log_abs as la\n"
        "from drinfeld.places import valuation_base, valuation\n"
        "from .places import *\n"
        "from . import places\n"
        "m = places.valuation(x, p)\n"
        "h = places.log_abs(x, v)\n"
        "from .places import Place, valuation_base\n"
        "from .valuation import places\n"
    )
    assert list(_per_place_divisions(tree)) == [1, 2, 3, 4, 6, 7]


def _monic_enumerations(tree):
    """Lines that import monic_polys_of_degree (or *) from a factor module,
    or read it off a name ``factor``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "factor":
            if any(alias.name in ("monic_polys_of_degree", "*") for alias in node.names):
                yield node.lineno
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "monic_polys_of_degree"
            and isinstance(node.value, ast.Name)
            and node.value.id == "factor"
        ):
            yield node.lineno


def test_isogeny_searches_no_monic_N():
    tree = ast.parse((SRC / "isogeny.py").read_text())
    functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert "minimal_N" in functions and not list(_monic_enumerations(tree))


def test_monic_enumeration_guard_sees_each_form():
    tree = ast.parse(
        "from .factor import monic_polys_of_degree\n"
        "from drinfeld.factor import factor, monic_polys_of_degree as monics\n"
        "from .factor import *\n"
        "from . import factor\n"
        "ms = factor.monic_polys_of_degree(A, 2)\n"
        "from .factor import is_irreducible\n"
        "from .monic_polys_of_degree import factor\n"
    )
    assert list(_monic_enumerations(tree)) == [1, 2, 3, 5]


def _missing_exports(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_every_export_exists():
    assert drinfeld.__all__ and not _missing_exports(drinfeld)


def test_export_guard_sees_a_stale_entry():
    module = types.SimpleNamespace(__all__=["present", "gone"], present=1)
    assert _missing_exports(module) == ["gone"]
