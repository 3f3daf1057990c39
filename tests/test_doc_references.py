"""The user-facing docs name only things that exist.

Every backticked repo path (brace groups expanded), every ``macross`` flag
and every ``MACROSS_*`` environment variable in ``README.md`` and
``DESIGN.md`` must resolve: paths to a file or directory of the repo,
flags to an option of the ``macross`` parser, of ``tests/conftest.py`` or
of ``bench/run.py``, and variables to a name the package reads.
"""

import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md")
#: Where a relative path in the prose may be rooted.
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro", ROOT / "tests")
_EXTENSIONS = (".py", ".md", ".json", ".txt", ".toml", ".yml", ".yaml",
               ".cfg", ".jsonl")
_OUTPUTS = (".json", ".jsonl", ".txt")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_ENV = re.compile(r"\bMACROSS_[A-Z0-9_]+")
_FENCE = re.compile(r"^\s*(```|~~~)")


def _snippets(doc):
    """``(line, text)`` of every inline code span and every fenced line."""
    fenced = False
    for number, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
        if _FENCE.match(line):
            fenced = not fenced
        elif fenced:
            yield number, line
        else:
            for span in re.findall(r"`([^`\n]+)`", line):
                yield number, span


def _expand(token):
    match = re.search(r"\{([^{}]*)\}", token)
    if not match:
        return [token]
    return [path for alt in match.group(1).split(",")
            for path in _expand(token[:match.start()] + alt.strip()
                                + token[match.end():])]


def _is_path(token):
    if re.search(r"[<>*:|]|\.\.", token) or token.startswith("/") \
            or (token.startswith(".") and "/" not in token):
        return False
    if "/" not in token and token.endswith(_OUTPUTS):
        return False   # a file a command writes: `--json serve.json`
    return token.endswith(_EXTENSIONS) or token.endswith("/")


def _exists(path, names):
    if "/" not in path.rstrip("/"):
        return path.rstrip("/") in names   # a bare name: any file of the repo
    return any((base / path).exists() for base in BASES)


def _known_flags():
    flags = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action.choices, dict):   # the subcommands
                parsers.extend(action.choices.values())
    for name, call in (("tests/conftest.py", "addoption"),
                       ("bench/run.py", "add_argument")):
        flags.update(re.findall(rf"{call}\(\s*\"(--[\w-]+)\"",
                                (ROOT / name).read_text()))
    return flags


def _references():
    refs = []
    for doc in DOCS:
        for line, text in _snippets(doc):
            words = text.lstrip("$ ").split()
            if words and (words[0] == "macross" or words[0].startswith("--")
                          or "bench/run.py" in words[:2]):
                refs += [(doc, line, "flag", f) for f in _FLAG.findall(text)]
            refs += [(doc, line, "env", v) for v in _ENV.findall(text)]
            for word in text.split():
                token = word.split("::")[0].lstrip("(").rstrip(",.;)")
                if _is_path(token):
                    refs += [(doc, line, "path", p) for p in _expand(token)]
    return refs


def test_docs_reference_something():
    kinds = {kind for _, _, kind, _ in _references()}
    assert kinds == {"path", "flag", "env"}


def test_doc_references_exist():
    flags = _known_flags()
    names = {p.name for p in ROOT.rglob("*") if ".git" not in p.parts}
    source = "\n".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    missing = []
    for doc, line, kind, ref in _references():
        ok = (_exists(ref, names) if kind == "path"
              else ref in flags if kind == "flag"
              else f'"{ref}"' in source)
        if not ok:
            missing.append(f"{doc}:{line}: {kind} {ref}")
    assert not missing, "stale doc references:\n" + "\n".join(missing)


def test_brace_groups_expand():
    assert _expand("src/{a,b}/{c, d}.py") == [
        "src/a/c.py", "src/a/d.py", "src/b/c.py", "src/b/d.py"]
