"""Every definition under ``src/repro`` is used by something other than a test.

The rule: a function, method or class (dunders aside) stays in ``src``
only if a run, a verb, a benchmark, an example or perfbench reaches it,
or if it is on :data:`KEEP` with the reason it stays.  A definition that
only tests reference is either deleted with its tests, or keep-listed
here because a remaining test uses it as the reference for kept code.

References are matched by simple name, so the check is deliberately
lenient: a name that anything outside tests mentions counts for every
definition of that name.  A reference is

* an ``ast.Name`` or attribute read, an imported name, or an
  identifier-shaped string constant (perfbench swaps attributes by
  string), and
* found in ``src`` outside the definition itself, outside a package
  ``__init__``'s import statements and outside ``__all__``, or found
  anywhere in ``benchmarks/``, ``examples/`` or ``perfbench/``.

Comments and docstrings never count.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTSIDE = ("benchmarks", "examples", "perfbench")

#: Definitions that stay although only tests reference them, by
#: ``module.Qualified.name``, each with the reason it stays.
KEEP = {
    # The kill path.  No run kills a thread, but perfbench's
    # ``test_probes_forward_send_and_throw_unchanged`` drives it
    # (CI's "perfbench self-tests" step); it goes once that test is
    # re-pointed (ROADMAP item 1).
    "repro.sim.exceptions.Interrupt":
        "kill path: perfbench's self-test throws it through run_burst",
    "repro.sim.events.Process.interrupt":
        "kill path: perfbench's self-test kills a thread",
    "repro.os.threads.Thread.interrupt":
        "kill path: perfbench's self-test kills a thread",
    "repro.os.threads.OsProcess.terminate":
        "kill path: perfbench's self-test terminates a process",
    # References of remaining tests.
    "repro.trace.wpa.CpuUsagePreciseTable.busy_intervals":
        "reference for busy_event_arrays in tests/test_trace.py",
    "repro.analysis.dse.pareto.dominates":
        "reference: the Pareto tests check pareto_frontier against "
        "pairwise dominance",
    "repro.os.sync.Lock.owner":
        "the lock's one state query: the Lock tests and the "
        "static-analysis fixture apps read the holder through it",
    # A dozen tests read WPA columns through the record properties.
    "repro.trace.records.ContextSwitchRecord.duration":
        "tests read the CPU Usage (Precise) running-time column",
    "repro.trace.records.ContextSwitchRecord.wait_time":
        "tests read the CPU Usage (Precise) ready-time column",
    "repro.trace.records.GpuPacketRecord.running_time":
        "tests read the GPU Utilization (FM) running-time column",
    "repro.trace.records.GpuPacketRecord.queue_time":
        "tests read the GPU Utilization (FM) queue-time column",
}

#: ``ast.NodeVisitor`` dispatches ``visit_<NodeType>`` by string.
VISITOR_METHOD = re.compile(r"visit_[A-Z]\w*$")

IDENTIFIER = re.compile(r"[A-Za-z_]\w*$")


def _skipped(tree, package_init):
    """Nodes whose names are not references: ``__all__`` everywhere,
    and a package ``__init__``'s import statements."""
    skipped = set()
    for node in tree.body:
        if package_init and isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.add(node)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skipped.add(node)
    return skipped


def _variables(scope):
    """Names a function or lambda binds as variables: its parameters
    and every name it assigns, outside nested scopes.  A read of one of
    these is a variable, not a reference to a definition (a local
    ``step`` is not ``Environment.step``)."""
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    pending = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        pending.extend(ast.iter_child_nodes(node))
    return names


def _references(tree, package_init=False):
    """``[(name, line)]`` for every reference in ``tree``."""
    found = []
    docstrings = set()

    def walk(node, variables=frozenset()):
        if node in skipped:
            return
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)):
                docstrings.add(first.value)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            variables = variables | _variables(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in variables:
                found.append((node.id, node.lineno))
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    found.append((part, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node not in docstrings
                and IDENTIFIER.match(node.value)):
            found.append((node.value, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, variables)

    skipped = _skipped(tree, package_init)
    walk(tree)
    return found


def _definitions(tree, module):
    """``[(qualified name, simple name, first line, last line)]``."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    found.append((qualified, child.name, child.lineno,
                                  child.end_lineno))
                walk(child, qualified)
            else:
                walk(child, prefix)

    walk(tree, module)
    return found


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@lru_cache(maxsize=None)
def scan():
    """``(definitions, test-only)``: every scanned definition by
    qualified name, and the sorted qualified names that nothing but
    tests reference."""
    definitions = []            # (qualified, name, path, first, last)
    src_refs = {}               # name -> [(path, line)]
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = _module_name(path)
        for qualified, name, first, last in _definitions(tree, module):
            definitions.append((qualified, name, path, first, last))
        package_init = path.name == "__init__.py"
        for name, line in _references(tree, package_init):
            src_refs.setdefault(name, []).append((path, line))
    outside = set()
    for folder in OUTSIDE:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            outside.update(name for name, _line in _references(tree))
    unused = []
    for qualified, name, path, first, last in definitions:
        if name in outside or VISITOR_METHOD.match(name):
            continue
        if any(ref_path != path or not first <= line <= last
               for ref_path, line in src_refs.get(name, ())):
            continue
        unused.append(qualified)
    return {d[0] for d in definitions}, sorted(set(unused))


def test_no_src_definition_is_referenced_only_by_tests():
    _defined, unused = scan()
    unexplained = [name for name in unused if name not in KEEP]
    assert not unexplained, (
        "referenced only by tests (delete them, or keep-list them in "
        "tests/test_src_surface.py with the reason they stay):\n  "
        + "\n  ".join(unexplained))


def test_every_keep_list_entry_names_a_definition_and_a_reason():
    defined, _unused = scan()
    stale = sorted(name for name in KEEP if name not in defined)
    assert not stale, f"keep-list entries with no definition: {stale}"
    assert all(reason.strip() for reason in KEEP.values())


def test_references_skip_docstrings_comments_exports_and_variables():
    tree = ast.parse(
        '"""docstring_ref"""\n'
        "from a import exported  # used_in_comment\n"
        "__all__ = ['listed']\n"
        "x = target.attr + name_ref\n"
        "y = 'string_ref'\n"
        "z = 'not an identifier'\n"
        "def f(step):\n"
        "    local = step + global_ref\n"
        "    return local\n")
    names = {name for name, _line in _references(tree, package_init=True)}
    assert names == {"target", "attr", "name_ref", "string_ref",
                     "global_ref"}
    names = {name for name, _line in _references(tree, package_init=False)}
    assert "exported" in names and "listed" not in names
