"""Lint: every ``Checker`` subclass under ``src/`` declares ``kinds``
as a non-empty tuple of string literals.

The invariant suite routes an event only to the checkers that declared
its kind, so a subclass that forgets ``kinds`` (or computes it) would
either be refused at run time or hide what it reads from the
kind -> checkers table in docs/OBSERVABILITY.md.

    python .github/scripts/check_checker_kinds.py [src-dir]
"""

import ast
import sys
from pathlib import Path


def declared_kinds(cls: ast.ClassDef):
    """The class body's ``kinds = (...)`` value node, or None."""
    for node in cls.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "kinds" for t in targets):
            return node.value
    return None


def problems(src: Path):
    classes = [(path, node)
               for path in sorted(src.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.ClassDef)]
    checkers = {"Checker"}
    while True:         # subclasses of subclasses, to a fixpoint
        found = {cls.name for _path, cls in classes
                 if any(isinstance(b, ast.Name) and b.id in checkers
                        or isinstance(b, ast.Attribute) and b.attr in checkers
                        for b in cls.bases)}
        if found <= checkers:
            break
        checkers |= found
    count = 0
    for path, cls in classes:
        if cls.name == "Checker" or cls.name not in checkers:
            continue
        count += 1
        value = declared_kinds(cls)
        where = f"{path}:{cls.lineno}: {cls.name}"
        if value is None:
            yield f"{where} declares no kinds"
        elif not (isinstance(value, ast.Tuple) and value.elts
                  and all(isinstance(e, ast.Constant)
                          and isinstance(e.value, str) for e in value.elts)):
            yield (f"{where}: kinds must be a non-empty tuple of string "
                   f"literals")
    if not count:
        yield f"{src}: no Checker subclass found (wrong directory?)"


def main(argv) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path("src")
    found = list(problems(src))
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
