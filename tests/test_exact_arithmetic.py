"""No floating point in the package: an AST scan of src/monicheb finds no
float or complex literal and no call to float() or complex() outside the
allow-list below."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "monicheb"

# Owners, as module.name or module.Class.method, that may use floats: the
# two __float__ conversions for display.
ALLOWED = {
    "constants.ConstantValue.__float__",
    "constants.SymbolicEndpoint.__float__",
}


class _FloatScan(ast.NodeVisitor):
    """Collects (owner, line) for each float or complex literal and each
    float() or complex() call; the owner is the enclosing chain of classes
    and functions, or the target of a module-level assignment."""

    def __init__(self, module: str) -> None:
        self.scope = [module]
        self.found: list[tuple[str, int]] = []

    def _visit_in(self, name: str, node: ast.AST) -> None:
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._visit_in(node.name, node)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Assign(self, node):
        target = node.targets[0]
        if len(self.scope) == 1 and isinstance(target, ast.Name):
            self._visit_in(target.id, node)
        else:
            self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, (float, complex)):
            self.found.append((".".join(self.scope), node.lineno))

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def float_uses(path: Path) -> list[tuple[str, int]]:
    scan = _FloatScan(path.stem)
    scan.visit(ast.parse(path.read_text(), filename=str(path)))
    return scan.found


def test_no_float_outside_allow_list():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    offenders = [
        f"{path.name}:{line} in {owner}"
        for path in paths
        for owner, line in float_uses(path)
        if owner not in ALLOWED
    ]
    assert not offenders, offenders


def test_scan_sees_literals_and_calls(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "X = 0.5\n"
        "def f(x):\n"
        "    return complex(x, 1) + 2j\n"
        "class C:\n"
        "    def g(self):\n"
        "        return float(self)\n"
    )
    assert float_uses(path) == [
        ("sample.X", 1),
        ("sample.f", 3),
        ("sample.f", 3),
        ("sample.C.g", 6),
    ]
