"""Source checks over every module of the package."""

import ast
import graphlib
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
    ("verify", "_product_nfold", "opts"),
    ("verify", "_union_triples", "opts"),
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
    # verify, with its catalog, runs while the tracer installs its wrappers,
    # before the later ones are in place: a traced function of another
    # module bound in verify would skip the tracer
    verify = importlib.import_module("furtherness.verify")
    bindings = [
        value for value in vars(verify).values()
        if getattr(value, "__module__", None) != verify.__name__
    ]

    def bound(module, attr):
        target = getattr(importlib.import_module(f"furtherness.{module}"), attr)
        return any(value is target for value in bindings)

    # a method is wrapped on its class, which verify shares
    traced = [
        f"{module}.{attr}"
        for module, attr, _ in _tracer_targets()
        if "." not in attr and bound(module, attr)
    ]
    assert traced == []


def _module_imports(tree):
    """The package modules that a module's own code imports as it runs:
    ``from . import x`` and ``from .x import y`` outside any def or class."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.partition(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        else:
            pending.extend(ast.iter_child_nodes(node))


def test_module_imports_have_no_cycle():
    # imports point one way, cli -> verify -> the library modules, so no
    # module, as it runs, reads back a half-run module that is importing it
    package = pathlib.Path(furtherness.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {
        path.stem: set(_module_imports(ast.parse(path.read_text()))) & modules
        for path in package.glob("*.py")
    }
    assert "verify" in graph["cli"]
    # raises CycleError, which names the modules of a cycle
    graphlib.TopologicalSorter(graph).prepare()
