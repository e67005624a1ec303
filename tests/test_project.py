"""Properties of the source tree: what the package imports, the names it
exports and the benchmark's tracer wraps, the README examples, and the
code-line count ROADMAP's figures use."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import vericov

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vericov"
README = ROOT / "README.md"


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _readme_blocks(section: str):
    """(language, text) of each fenced block in README's `## section`."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    end = text.find("\n## ", start + 1)
    return re.findall(r"^```(\w*)\n(.*?)^```$", text[start:end], re.M | re.S)


def _library_block() -> str:
    [block] = [text for lang, text in _readme_blocks("Library use")
               if lang == "python"]
    return block


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Lines of a module that hold a code token outside a docstring.

    Blank lines, comments and string statements (docstrings) do not
    count; every line a multi-line token or statement spans does.  The
    tier-1 workflow prints the sum over `src/vericov` and each module's
    count (run this file as a script).
    """
    lines = set()
    statement = []  # the tokens of the current logical line
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if [t.type for t in statement] != [tokenize.STRING]:
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif token.type not in _NOT_CODE:
                statement.append(token)
    return len(lines)


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text('''"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment


def f(a,
      b):
    """Docstring."""
    x = (a +
         b)
    y = a \\
        + b
    s = """text
over two lines"""
    return x, y, s, os
''')
    # import, the def's two lines, x's two, y's two, s's two and return.
    assert code_lines(module) == 10


def _imported_from(tree: ast.AST, module: str) -> set:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


def test_runtime_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "vericov" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, module))
    assert foreign == []


def test_benchmark_tracer_bindings_resolve():
    # perfbench/spans.py wraps these functions at these module bindings;
    # a binding that disappears breaks the benchmark's traced run.
    spans = _spans()
    missing = [(module, attr) for module, attr, _span in spans.BINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.BINDINGS
    assert missing == []


def test_cfa_dump_reaches_the_traced_front_end_bindings(monkeypatch, capsys):
    # The traced run's `lang.parse_s` and `lowering.lower_s` time the
    # wrappers at these bindings; a front end that called past them would
    # read zero there however long it took.
    bound = {span: (module, attr) for module, attr, span in _spans().BINDINGS}
    calls = []
    for span in ("lang.parse_program", "lowering.lower"):
        module = importlib.import_module(bound[span][0])
        real = getattr(module, bound[span][1])

        def spy(*args, _real=real, _span=span, **kwargs):
            calls.append(_span)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, bound[span][1], spy)
    from vericov.cli import main
    assert main(["cfa-dump", str(ROOT / "tests/fixtures/bigloop.c")]) == 0
    assert capsys.readouterr().out
    assert calls == ["lang.parse_program", "lowering.lower"]


def test_a_forking_explore_reaches_the_traced_postorder_binding(monkeypatch):
    # The traced run's `cfa.postorder_s` times the wrapper at this binding;
    # `expand` works the postorder out at its first ordered fork, and an
    # explorer that called past the binding would read zero there.
    module, attr = next((module, attr) for module, attr, span
                        in _spans().BINDINGS if span == "cfa.postorder_index")
    module = importlib.import_module(module)
    real = getattr(module, attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    from vericov import Budget, Spec, explore, source_to_cfa
    cfa = source_to_cfa((ROOT / "tests/fixtures/chain_ifs.c").read_text())
    explore(cfa, Spec.assertions(), Budget(max_nodes=50))
    assert calls == [(cfa,)]


def test_a_scored_cover_reaches_the_traced_score_binding(monkeypatch,
                                                        capsys):
    # The traced run's `heuristic.*` times of `cover-under --strategy
    # dfs-postorder+score` sit under the wrapper at this binding, which the
    # explorer calls at its first ordered fork.
    module, attr = next((module, attr) for module, attr, span
                        in _spans().BINDINGS if span == "heuristic.score")
    module = importlib.import_module(module)
    real = getattr(module, attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    from vericov.cli import main
    assert main(["cover-under", str(ROOT / "tests/fixtures/chain_ifs.c"),
                 "--aa", str(ROOT / "tests/goldens/trivial_true.aa"),
                 "--strategy", "dfs-postorder+score"]) == 0
    assert "covered" in capsys.readouterr().out
    assert len(calls) == 1


def _package_uses() -> set:
    """(sibling, name) for each name a package module but `__init__` takes
    from a sibling module: `from .sibling import name`, or `sibling.name`
    after `from . import sibling`."""
    uses = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update(alias.asname or alias.name
                                    for alias in node.names)
                else:
                    uses.update((node.module, alias.name)
                                for alias in node.names)
        uses.update((node.value.id, node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in siblings)
    return uses


def test_public_names_follow_the_export_rule():
    # A name is exported only if it is defined in cli.py, imported by
    # README's Library use block, bound by the benchmark's tracer, or used
    # by a package module other than its own.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    origin = {alias.asname or alias.name: node.module
              for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.level == 1
              for alias in node.names}
    [exported] = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["__all__"]]
    assert sorted(origin) == sorted(exported)
    library = _imported_from(ast.parse(_library_block()), "vericov")
    bound = {attr for _module, attr, _span in _spans().BINDINGS}
    uses = _package_uses()
    unused = [name for name in exported
              if origin[name] != "cli" and name not in library
              and name not in bound and (origin[name], name) not in uses]
    assert unused == []


def _vericov_command(line: str) -> str:
    """A README console line, with `vericov` run from this source tree."""
    assert line.startswith("vericov ")
    return f"{shlex.quote(sys.executable)} -m {line}"


def _stripped(text: str):
    return [line.rstrip() for line in text.splitlines()]


def test_readme_examples_run_as_written(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for lang, text in _readme_blocks("Quick start"):
        if lang == "c":
            (tmp_path / "spin.c").write_text(text)
        elif lang == "text":  # the automaton `verify --aa-out` wrote
            shown = text.split("...\n")[0]
            assert (tmp_path / "spin.aa").read_text().startswith(shown)
        else:
            assert lang == "console"
            for command, output in re.findall(
                    r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", text, re.M):
                proc = subprocess.run(
                    _vericov_command(command), shell=True, cwd=tmp_path,
                    env=env, capture_output=True, text=True)
                assert proc.returncode == 0, (command, proc.stderr)
                assert _stripped(proc.stdout) == _stripped(output), command
    block = _library_block()
    assert _imported_from(ast.parse(block), "vericov") <= set(vericov.__all__)
    proc = subprocess.run([sys.executable, "-X", "dev", "-c", block],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    # Each print is one line; a trailing `# "text"` names what it shows.
    prints = [re.search(r'# "(.*)"$', line) for line in block.splitlines()
              if line.startswith("print(")]
    shown = proc.stdout.splitlines()
    assert len(shown) == len(prints)
    for line, expected in zip(shown, prints):
        if expected:
            assert line == expected.group(1)


if __name__ == "__main__":
    counts = sorted(((code_lines(path), path.stem)
                     for path in PACKAGE.glob("*.py")), reverse=True)
    print(f"code lines in src/vericov: {sum(n for n, _ in counts):,} ("
          + ", ".join(f"{stem} {n:,}" for n, stem in counts) + ")")
