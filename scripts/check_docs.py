#!/usr/bin/env python3
"""CI gate: the documentation stays wired to the code.

    python scripts/check_docs.py [--verbose]

Five classes of doc rot this catches:

1. **Broken links** — every relative markdown link (``[x](docs/FOO.md)``,
   ``[y](SIMULATOR.md)``, anchors and ``examples/`` directories
   included) in the repository's top-level and ``docs/`` markdown
   pages must resolve to an existing file or directory.
2. **Phantom CLI flags** — every ``--flag`` a markdown page mentions
   in an inline-code span or fenced block must be a real flag of
   ``python -m repro`` (``repro.cli.build_parser``), so examples never
   drift from the parser.  Long options only; flags of *other* tools
   (pytest, pip, mypy) are ignored unless the line invokes
   ``python -m repro``.
3. **Phantom module names** — every ``repro.<dotted>`` name inside an
   inline-code span of README.md, DESIGN.md, EXPERIMENTS.md and
   ``docs/*.md`` must import as a module or resolve as an attribute of
   one (``repro.api.decompose``, ``repro.systems.*``).  Schema ids
   (``repro.runreport/v1``, ``repro.matrix-baseline/v1``) are not
   code.  The other top-level pages (CHANGES.md, ROADMAP.md, ...) are
   history and name deleted code on purpose, so they are not walked.
4. **Phantom keywords** — on the same pages, every call snippet of a
   name exported by a ``repro`` package's ``__all__`` (``Device(...)``,
   ``gpu_peel(..., memtrace=True)``), in an inline-code span or a
   fenced block, must pass only keywords the callable really takes.
   Snippets that do not parse as a Python call, and callables that
   take ``**kwargs``, are skipped.
5. **Phantom paths** — on the same pages, every repository path in
   an inline-code span or a fenced block (``scripts/*.py``,
   ``benchmarks/results/*.json``, ``docs/*.md``) must exist, so a
   deleted gate script or baseline cannot stay documented.

Exit status: 0 OK, 1 findings, 2 configuration error (missing file).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from _bench_common import REPO_ROOT, bootstrap

#: the pages the gate walks (globs, relative to the repo root)
DOC_GLOBS = ("*.md", "docs/*.md")

#: ``[text](target)`` — target captured without any ``#anchor``
_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")

#: ``--long-flag`` tokens on lines that invoke the repro CLI
_FLAG = re.compile(r"(--[a-z][a-z0-9-]+)")
_CLI_LINE = re.compile(r"python -m repro\b|^repro\b")

#: the pages whose ``repro.<dotted>`` names must resolve
NAME_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

#: an inline-code span, and a dotted ``repro`` name inside one
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")

#: a repository path: a script, a committed result, or a docs page
_PATH = re.compile(
    r"(?<![\w./-])(?:scripts/[\w.-]+\.py|benchmarks/results/[\w.-]+\.json"
    r"|docs/[\w.-]+\.md)(?![\w/-])"
)

#: a fenced-block delimiter line, and a call of a bare name
_FENCE = re.compile(r"^\s*(```|~~~)")
_CALL = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\(")


def _doc_files(globs: "tuple[str, ...]" = DOC_GLOBS) -> List[Path]:
    files: List[Path] = []
    for pattern in globs:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    if not files:
        print("error: no markdown files found", file=sys.stderr)
        raise SystemExit(2)
    return files


def _rel(path: Path) -> Path:
    """``path`` relative to the repo root when it lies inside it."""
    if path.is_relative_to(REPO_ROOT):
        return path.relative_to(REPO_ROOT)
    return path


def _cli_flags() -> Set[str]:
    """The long option strings ``python -m repro`` actually accepts."""
    from repro.cli import build_parser

    flags: Set[str] = set()
    for action in build_parser()._actions:
        flags.update(
            opt for opt in action.option_strings if opt.startswith("--")
        )
    return flags


def check_links(path: Path, text: str, problems: List[str]) -> int:
    checked = 0
    for match in _LINK.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue  # external URL: out of scope (offline CI)
        checked += 1
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            line = text[: match.start()].count("\n") + 1
            problems.append(f"{_rel(path)}:{line}: broken link -> {target}")
    return checked


def check_cli_flags(
    path: Path, text: str, known: Set[str], problems: List[str]
) -> int:
    checked = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not _CLI_LINE.search(line):
            continue
        for flag in _FLAG.findall(line):
            checked += 1
            if flag not in known:
                problems.append(
                    f"{_rel(path)}:{lineno}: unknown repro CLI flag {flag}"
                )
    return checked


def resolves(name: str) -> bool:
    """Whether dotted ``name`` imports, or is an attribute chain off
    the longest prefix of it that imports."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_module_names(
    path: Path, text: str, problems: List[str]
) -> int:
    checked = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        for span in _SPAN.finditer(line):
            code = span.group(1)
            for match in _NAME.finditer(code):
                if re.match(r"[\w.-]*/", code[match.end():]):
                    continue  # a schema id: repro.matrix-baseline/v1
                checked += 1
                if not resolves(match.group()):
                    problems.append(
                        f"{_rel(path)}:{lineno}: unknown module name "
                        f"{match.group()}"
                    )
    return checked


def exported_keywords() -> Dict[str, FrozenSet[str]]:
    """``name -> keyword parameters`` for every callable exported by
    the ``__all__`` of ``repro`` and its subpackages, except callables
    that take ``**kwargs``."""
    import repro

    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ]
    keywords: Dict[str, FrozenSet[str]] = {}
    for package in packages:
        for name in getattr(package, "__all__", ()):
            try:
                params = inspect.signature(getattr(package, name)).parameters
            except (TypeError, ValueError):
                continue  # not callable, or no introspectable signature
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            keywords[name] = frozenset(
                n for n, p in params.items()
                if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
            )
    return keywords


def _code_snippets(text: str) -> Iterator[Tuple[int, str]]:
    """``(first line, code)`` for every fenced block and every inline
    code span outside one."""
    block: List[str] | None = None
    start = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if _FENCE.match(line):
            if block is None:
                block, start = [], lineno + 1
            else:
                yield start, "\n".join(block)
                block = None
        elif block is not None:
            block.append(line)
        else:
            for span in _SPAN.finditer(line):
                yield lineno, span.group(1)


def _parse_call(code: str) -> "ast.Call | None":
    """The call expression ``code`` opens with, up to its closing
    parenthesis, or ``None`` if no prefix of it parses as a call."""
    end = code.find(")")
    while end != -1:
        try:
            node = ast.parse(code[: end + 1], mode="eval").body
        except SyntaxError:
            end = code.find(")", end + 1)
            continue
        return node if isinstance(node, ast.Call) else None
    return None


def check_keywords(
    path: Path, text: str, known: Dict[str, FrozenSet[str]],
    problems: List[str],
) -> int:
    checked = 0
    for first_line, code in _code_snippets(text):
        for match in _CALL.finditer(code):
            name = match.group(1)
            if name not in known:
                continue
            call = _parse_call(code[match.start():])
            if call is None:
                continue
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue  # a ``**mapping`` argument
                checked += 1
                if keyword.arg not in known[name]:
                    line = (first_line + code[: match.start()].count("\n")
                            + keyword.lineno - 1)
                    problems.append(
                        f"{_rel(path)}:{line}: {name}() has no keyword "
                        f"{keyword.arg!r}"
                    )
    return checked


def check_paths(path: Path, text: str, problems: List[str]) -> int:
    checked = 0
    for first_line, code in _code_snippets(text):
        for match in _PATH.finditer(code):
            checked += 1
            if not (REPO_ROOT / match.group()).exists():
                line = first_line + code[: match.start()].count("\n")
                problems.append(
                    f"{_rel(path)}:{line}: no such file {match.group()}"
                )
    return checked


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="print per-file check counts")
    args = parser.parse_args(argv)
    bootstrap()
    known_flags = _cli_flags()
    known_keywords = exported_keywords()
    name_pages = set(_doc_files(NAME_GLOBS))
    problems: List[str] = []
    n_links = n_flags = n_names = n_keywords = n_paths = 0
    for path in _doc_files():
        text = path.read_text(encoding="utf-8")
        links = check_links(path, text, problems)
        flags = check_cli_flags(path, text, known_flags, problems)
        names = keywords = paths = 0
        if path in name_pages:
            names = check_module_names(path, text, problems)
            keywords = check_keywords(path, text, known_keywords, problems)
            paths = check_paths(path, text, problems)
        n_links += links
        n_flags += flags
        n_names += names
        n_keywords += keywords
        n_paths += paths
        if args.verbose:
            print(f"  {_rel(path)}: {links} links, {flags} CLI flags, "
                  f"{names} module names, {keywords} keywords, "
                  f"{paths} paths")
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({n_links} links, {n_flags} CLI flag "
          f"mentions, {n_names} module names, {n_keywords} call keywords, "
          f"{n_paths} repository paths across the markdown pages)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
