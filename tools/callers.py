"""Who refers to each definition in `src/colorinv`.

    python3 tools/callers.py

Parses every Python file under src/, tests/, bench/ and tools/ and lists,
as Markdown, the module-level functions and classes and the class methods
of `src/colorinv` that only tests refer to, then those that nothing refers
to, then the names a file of `src/colorinv`, `tests/` or `tools/` imports
and never reads (`from __future__` imports left out), then the imports
inside a function or class of a `src/colorinv` module from a module that
the same file already imports at top level.  Exits 1 when the second,
third or fourth list is not empty, 0 otherwise.

A reference is a read of the name (`f`, `mod.f`, `obj.f`), or a string
constant equal to the name or ending in `.name` (how the benchmark's tracer
names what it wraps).  A method is only ever reached through an attribute,
so only attribute reads and strings count for it: a bare local variable of
the same name (`entry = ...; entry`) does not.  A read inside the
definition's own body does not count.  Names are matched without types, so
a method counts as referenced wherever any attribute of that name is read:
the lists are what certainly has no other caller, not everything that
might lack one.  Dunder methods are called by the language and are not
listed.

Run from anywhere; paths are taken relative to the checkout.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "tests", "bench", "tools")


def python_files(tree):
    for folder, _, names in sorted(os.walk(os.path.join(ROOT, tree))):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def definitions(path, module):
    """(qualified name, name, first line, last line, is a method) of each
    module-level function or class and each method, dunders left out."""
    out = []
    for node in parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(("%s.%s" % (module, node.name), node.name,
                        node.lineno, node.end_lineno, False))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    out.append(("%s.%s.%s" % (module, node.name, item.name), item.name,
                                item.lineno, item.end_lineno, True))
    return out


def references(path):
    """{name: [(line, bare), ...]} of every name read and string constant,
    bare true for a read of a plain name (`f`, not `obj.f` or "f")."""
    out = {}
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name, bare = node.id, True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name, bare = node.attr, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name, bare = node.value.rpartition(".")[2], False
        else:
            continue
        out.setdefault(name, []).append((node.lineno, bare))
    return out


def unused_imports(path):
    """(name, line) of each name the module imports and never reads."""
    tree = parse(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    out.append((name, node.lineno))
    return out


def imported_modules(node):
    """The modules an import statement reads from, relative ones with
    their leading dots (`from . import x` reads from `.x`)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    dots = "." * node.level
    if node.module is None:
        return [dots + alias.name for alias in node.names]
    return [dots + node.module]


def nested_imports(path):
    """(module, line) of each import below module level from a module the
    file also imports at top level."""
    tree = parse(path)
    top = {m for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for m in imported_modules(node)}
    nested = {node for stmt in tree.body if not isinstance(stmt, (ast.Import, ast.ImportFrom))
              for node in ast.walk(stmt) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted((m, node.lineno) for node in nested
                  for m in imported_modules(node) if m in top)


def main():
    refs = {tree: {} for tree in TREES}
    for tree in TREES:
        for path in python_files(tree):
            refs[tree][path] = references(path)

    tests_only, unreferenced = [], []
    src_dir = os.path.join(ROOT, "src", "colorinv")
    for path in python_files(os.path.join("src", "colorinv")):
        module = os.path.splitext(os.path.relpath(path, src_dir))[0].replace(os.sep, ".")
        for qualname, name, first, last, method in definitions(path, module):
            where = set()
            for tree in TREES:
                for other, names in refs[tree].items():
                    lines = [n for n, bare in names.get(name, ()) if not (method and bare)]
                    if any(other != path or not first <= n <= last for n in lines):
                        where.add(tree)
            entry = "- `%s` %s:%d" % (qualname, os.path.relpath(path, ROOT), first)
            if not where:
                unreferenced.append(entry)
            elif where == {"tests"}:
                tests_only.append(entry)

    print("### src definitions referred to only from tests (%d)\n" % len(tests_only))
    print("\n".join(tests_only) or "none")
    print("\n### src definitions referred to nowhere (%d)\n" % len(unreferenced))
    print("\n".join(unreferenced) or "none")
    unread = ["- `%s` %s:%d" % (name, os.path.relpath(path, ROOT), line)
              for tree in (os.path.join("src", "colorinv"), "tests", "tools")
              for path in python_files(tree)
              for name, line in unused_imports(path)]
    print("\n### names imported in src, tests or tools and never read (%d)\n"
          % len(unread))
    print("\n".join(unread) or "none")
    nested = ["- `%s` %s:%d" % (module, os.path.relpath(path, ROOT), line)
              for path in python_files(os.path.join("src", "colorinv"))
              for module, line in nested_imports(path)]
    print("\n### function-level imports of a module imported at top level (%d)\n"
          % len(nested))
    print("\n".join(nested) or "none")
    return 1 if unreferenced or unread or nested else 0


if __name__ == "__main__":
    sys.exit(main())
