#!/usr/bin/env python3
"""Lint the repository paths and shell commands quoted in the docs.

Every fenced ``bash``/``sh``/``console`` block in README.md, DESIGN.md and
EXPERIMENTS.md is parsed and each command line is checked against the
repository:

* binaries under ``build/`` must correspond to a real source target
  (``build/examples/icnet_cli`` -> ``examples/icnet_cli.cpp``, same for
  ``bench/`` and ``tests/``),
* ``scripts/...`` (and any other repo-relative path argument) must exist,
* every ``--flag`` passed to ``icnet_cli`` must appear in
  ``examples/icnet_cli.cpp``, and its subcommand must be one the CLI
  dispatches,
* bare command names must be on the small allowlist of system tools the
  docs may assume.

Outside the fenced blocks, in prose and tables, every backticked path that
starts with a repository directory (``src/``, ``bench/``, ...) must exist,
after stripping trailing punctuation and a ``:line`` suffix.
``bench/<name>``, ``tests/<name>`` and ``examples/<name>`` may name a build
target whose ``<name>.cpp`` exists.

Run from the repository root:  python3 scripts/docs_lint.py
Exits nonzero listing every stale reference, so CI catches docs rot the
moment a flag or file is renamed.
"""

import re
import shlex
import sys
from pathlib import Path

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
FENCE_LANGS = {"bash", "sh", "shell", "console"}

# System tools the docs may reference without the repo providing them.
SYSTEM_TOOLS = {
    "cmake", "ctest", "python3", "bash", "sh", "cd", "export", "cat",
    "echo", "tail", "head", "grep", "sort", "watch", "kill", "mkdir",
    "curl", "git", "sleep", "wait", "true", "for", "do", "done", "if",
    "then", "fi", "while", "read", "seq", "jq", "diff", "env", "nproc",
    "tee",
}

# Path prefixes that must exist in the repo when mentioned as arguments.
REPO_PREFIXES = ("scripts/", "docs/", "tests/", "src/", "examples/",
                 "bench/", ".github/")

# Path prefixes checked when a backticked token in prose or a table
# starts with one.
PROSE_PREFIXES = ("src/", "bench/", "tests/", "examples/", "scripts/",
                  "perfbench/", ".github/")


def fenced_blocks(text):
    """Yield (lang, first_line_number, block_text) for every fenced block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^\s*```(\w*)\s*$", lines[i])
        if not m:
            i += 1
            continue
        lang = m.group(1).lower()
        start = i + 1
        j = start
        while j < len(lines) and not re.match(r"^\s*```\s*$", lines[j]):
            j += 1
        yield lang, start + 1, "\n".join(lines[start:j])
        i = j + 1


def prose_lines(text):
    """Yield (line_number, line) for every line outside the fenced blocks."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if re.match(r"^\s*```", line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def command_lines(lang, block):
    """Commands in a block: every line for bash/sh, '$ '-prefixed for console."""
    joined = []
    pending = ""
    for raw in block.splitlines():
        line = pending + raw
        pending = ""
        if line.rstrip().endswith("\\"):
            pending = line.rstrip()[:-1] + " "
            continue
        joined.append(line)
    if pending:
        joined.append(pending)
    for line in joined:
        stripped = line.strip()
        if lang == "console":
            if stripped.startswith("$ "):
                yield stripped[2:]
            continue  # other console lines are output, not commands
        if not stripped or stripped.startswith("#"):
            continue
        yield stripped


def split_segments(command):
    """Split a shell line into simple commands on |, &&, ||, and ;."""
    try:
        tokens = shlex.split(command, comments=True)
    except ValueError:
        return []  # unbalanced quotes: treat as prose, not a command
    segments = []
    current = []
    for tok in tokens:
        if tok in ("|", "&&", "||", ";", "&"):
            if current:
                segments.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        segments.append(current)
    return segments


def strip_redirections(tokens):
    out = []
    skip_next = False
    for tok in tokens:
        if skip_next:
            skip_next = False
            continue
        if tok in (">", ">>", "<", "2>", "&>"):
            skip_next = True
            continue
        if re.match(r"^\d*>&?\d*$", tok) or tok.startswith((">", "<")):
            continue
        out.append(tok)
    return out


class Linter:
    def __init__(self, root):
        self.root = Path(root)
        self.errors = []
        cli_source = self.root / "examples" / "icnet_cli.cpp"
        self.cli_text = cli_source.read_text() if cli_source.exists() else ""
        self.cli_subcommands = set(
            re.findall(r'cmd == "(\w+)"', self.cli_text))

    def error(self, doc, lineno, message):
        self.errors.append(f"{doc}:{lineno}: {message}")

    def check_build_path(self, doc, lineno, path):
        # build/examples/icnet_cli -> examples/icnet_cli.cpp etc.
        m = re.match(r"^\.?/?build[^/]*/(examples|bench|tests)/([\w.-]+)$",
                     path)
        if not m:
            self.error(doc, lineno,
                       f"'{path}' is not a recognized build artifact path")
            return
        source = self.root / m.group(1) / (m.group(2) + ".cpp")
        if not source.exists():
            self.error(doc, lineno,
                       f"'{path}' has no source at {m.group(1)}/"
                       f"{m.group(2)}.cpp")

    def check_repo_path(self, doc, lineno, path):
        clean = path.split("=", 1)[-1] if "=" in path else path
        if any(ch in clean for ch in "*$<>{}"):
            return  # globs / placeholders are fine
        if clean.startswith(REPO_PREFIXES) and not (self.root / clean).exists():
            self.error(doc, lineno, f"referenced file '{clean}' does not exist")

    def check_prose_path(self, doc, lineno, token):
        path = token.split()[0]
        path = re.sub(r"[.,;:)]+$", "", path)
        path = re.sub(r":\d+(-\d+)?$", "", path)
        if any(ch in path for ch in "*$<>{}"):
            return  # globs / placeholders are fine
        if (self.root / path).exists():
            return
        target = re.match(r"^(bench|tests|examples)/([\w.-]+)$", path)
        if target and (self.root / target.group(1) /
                       (target.group(2) + ".cpp")).exists():
            return
        self.error(doc, lineno, f"referenced path '{path}' does not exist")

    def check_cli_invocation(self, doc, lineno, tokens):
        args = [t for t in tokens[1:] if not t.startswith("$")]
        if args and not args[0].startswith("-"):
            sub = args[0]
            if sub not in self.cli_subcommands:
                self.error(doc, lineno,
                           f"icnet_cli has no '{sub}' subcommand")
        for tok in args:
            if not tok.startswith("--"):
                continue
            flag = tok[2:].split("=", 1)[0]
            if not flag:
                continue
            # Flags appear in the CLI source either as opt(a, "name", ...)
            # lookups or as literal "--name" usage/parse strings.
            if f'"{flag}"' not in self.cli_text and \
               f"--{flag}" not in self.cli_text:
                self.error(doc, lineno,
                           f"icnet_cli does not accept --{flag}")

    def check_segment(self, doc, lineno, tokens):
        tokens = strip_redirections(tokens)
        # Drop leading VAR=value environment assignments.
        while tokens and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", tokens[0]):
            self.check_repo_path(doc, lineno, tokens[0])
            tokens = tokens[1:]
        if not tokens:
            return
        head = tokens[0]
        if head.startswith("$"):
            return  # variable command, can't verify
        if head == "icnet_cli":
            # Docs may assume the CLI is on PATH; still verify its usage.
            self.check_cli_invocation(doc, lineno, tokens)
        elif "build/" in head:
            self.check_build_path(doc, lineno, head)
            if head.endswith("icnet_cli"):
                self.check_cli_invocation(doc, lineno, tokens)
        elif head.startswith(REPO_PREFIXES) or head.startswith("./scripts/"):
            self.check_repo_path(doc, lineno, head.lstrip("./"))
        elif head in SYSTEM_TOOLS:
            pass
        elif "/" in head:
            self.check_repo_path(doc, lineno, head)
        else:
            self.error(doc, lineno,
                       f"'{head}' is neither a repo binary/script nor an "
                       f"allowlisted system tool")
        for tok in tokens[1:]:
            if tok.startswith(REPO_PREFIXES):
                self.check_repo_path(doc, lineno, tok)

    def lint(self):
        for doc in DOCS:
            path = self.root / doc
            if not path.exists():
                self.errors.append(f"{doc}: missing")
                continue
            text = path.read_text()
            for lang, lineno, block in fenced_blocks(text):
                if lang not in FENCE_LANGS:
                    continue
                for command in command_lines(lang, block):
                    for segment in split_segments(command):
                        self.check_segment(doc, lineno, segment)
            for lineno, line in prose_lines(text):
                for token in re.findall(r"`([^`]+)`", line):
                    if token.strip().startswith(PROSE_PREFIXES):
                        self.check_prose_path(doc, lineno, token.strip())
        return self.errors


def main():
    linter = Linter(Path(__file__).resolve().parent.parent)
    errors = linter.lint()
    if errors:
        print(f"docs-lint: {len(errors)} stale reference(s):")
        for err in errors:
            print(f"  {err}")
        return 1
    print("docs-lint: all fenced shell commands and backticked paths "
          "reference real binaries, flags, and files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
