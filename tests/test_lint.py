"""Source checks over every module of the package."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import typing

import furtherness

# (module, function, parameter) that a protocol passes and the body need not
# read: the value an immutable record refuses, and the options of the two
# custom runners whose corpus takes no option
UNREAD = {
    ("spaces", "__setattr__", "value"),
    ("theorems", "_product_nfold", "opts"),
    ("theorems", "_union_triples", "opts"),
}


def _functions(tree):
    """(function node, whether it is a method) of every def and lambda."""
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node, id(node) in methods


def _unread(path):
    for node, method in _functions(ast.parse(path.read_text())):
        args = node.args
        params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs]
        params += [p.arg for p in (args.vararg, args.kwarg) if p]
        if method:
            # the receiver, which a zero-argument super() reads unseen
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            name.id
            for stmt in body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param not in read:
                yield path.stem, name, param


def test_every_parameter_is_read():
    found = set()
    for path in sorted(pathlib.Path(furtherness.__file__).parent.glob("*.py")):
        found.update(_unread(path))
    assert found == UNREAD


def _annotated(module):
    """Every function and class that ``module`` defines, and their methods."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            yield value
            yield from (m for m in vars(value).values() if inspect.isfunction(m))


def test_every_annotation_resolves():
    # the modules postpone annotations, so a name that is imported only for
    # a type checker shows up here and not at import
    for path in sorted(pathlib.Path(furtherness.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"furtherness.{path.stem}".removesuffix(".__init__"))
        for obj in _annotated(module):
            typing.get_type_hints(obj)


def _tracer_targets():
    """``TARGETS`` of the benchmark's tracer, whose module is only loaded:
    nothing in it is called."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_catalog_binds_no_traced_function():
    # the catalog runs while the tracer installs its wrappers, before the
    # later ones are in place: a traced function bound in the catalog would
    # skip the tracer
    catalog = vars(importlib.import_module("furtherness.theorems")).values()

    def bound(module, attr):
        target = getattr(importlib.import_module(f"furtherness.{module}"), attr)
        return any(value is target for value in catalog)

    # a method is wrapped on its class, which the catalog shares
    traced = [
        f"{module}.{attr}"
        for module, attr, _ in _tracer_targets()
        if "." not in attr and bound(module, attr)
    ]
    assert traced == []
