#!/usr/bin/env python3
"""Keep the workspace's public surface to what the system calls.

Run from the repository root: `python3 .github/public_surface.py`.
Exits 1, listing each offence, when

  * a `pub` item (fn, struct, enum, trait, type, const, static) or a
    `pub mod` in a library's `crates/*/src` is named by no file outside
    that library: other crates, the crate's own `tests/`, `examples/` and
    `src/bin/`, the root package's `src/`, `tests/` and `examples/`, and
    `benchmark/`, and the examples in doc comments, which rustdoc compiles
    as an outside crate. Other comments and string literals do not count as
    a name, and a `pub mod` counts only when some outside file writes its
    path (`name::`, `::name` or inside a `use`);
  * a `[dependencies]`, `[dev-dependencies]` or `[build-dependencies]`
    edge of a workspace package is named by no `.rs` file of that package;
  * an entry of the allow-list (`.github/public_surface_allow.txt`) has no
    reason, or is stale: its item is gone or no longer `pub`, or an
    outside file names it after all.

The scan works on names, not on resolved paths, so a crate-internal item
that shares its name with something used outside passes; it is a tripwire
for surface that grows unused, not a proof of minimality. Inside a private
module the `unreachable_pub` lint (see the workspace `Cargo.toml`) does the
exact check.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / ".github" / "public_surface_allow.txt"

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
ITEM = re.compile(
    r"^[ \t]*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static|mod)\s+([A-Za-z_][A-Za-z0-9_]*)",
    re.M,
)
TEST_MODULE = re.compile(r"^[ \t]*#\[cfg\(test\)\]\s*(?:pub(?:\([^)]*\))?\s+)?mod \w+\s*\{", re.M)


def strip(src):
    """Blank out comments and the contents of string and char literals."""
    out, i, n = [], 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            i = n if j < 0 else j
        elif src.startswith("/*", i):
            start, depth, i = i, 1, i + 2
            while i < n and depth:
                if src.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif src.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
            out.append(" " + "\n" * src.count("\n", start, i))
        elif c == "r" and re.match(r'r#*"', src[i:i + 260]) and not (
            i and (src[i - 1].isalnum() or src[i - 1] == "_")
        ):
            hashes = re.match(r"r(#*)\"", src[i:]).group(1)
            start, end = i, src.find('"' + hashes, i + 2 + len(hashes))
            i = n if end < 0 else end + 1 + len(hashes)
            out.append('""' + "\n" * src.count("\n", start, i))
        elif c == '"':
            start, i = i, i + 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            out.append('""' + "\n" * src.count("\n", start, i))
        elif c == "'":
            m = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'", src[i:i + 16])
            if m:
                i += m.end()
                out.append("' '")
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def doc_examples(src):
    """The code of the ```-fenced examples in `///` and `//!` comments:
    rustdoc compiles each against the public API, as an outside crate."""
    out, fenced = [], False
    for line in src.splitlines():
        doc = re.match(r"\s*//[/!]\s?(.*)", line)
        if doc and doc.group(1).lstrip().startswith("```"):
            fenced = not fenced
        elif doc and fenced:
            out.append(doc.group(1).lstrip("# "))
    return "\n".join(out)


def library_source(path):
    """A library file's text without its `#[cfg(test)]` modules, comments
    and literals blanked."""
    text = strip(path.read_text())
    while m := TEST_MODULE.search(text):
        depth, i = 0, m.end() - 1
        while i < len(text):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
            if depth == 0:
                break
        text = text[: m.start()] + "\n" * text.count("\n", m.start(), i) + text[i:]
    return text


def interface(kind, text, start):
    """What an outside user of the item sees: a signature, a constant's or
    alias's type, a struct's public fields, an enum's or trait's body."""
    end = len(text)
    for stop in ";{":
        at = text.find(stop, start)
        if 0 <= at < end:
            end = at
    if kind in ("fn", "type", "const", "static", "mod") or text[end:end + 1] != "{":
        return text[start:end]
    depth, i = 0, end
    while i < len(text):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            break
        i += 1
    body = text[end:i]
    if kind == "struct":
        body = "\n".join(l for l in body.splitlines() if re.match(r"\s*pub\s", l))
    return text[start:end] + body


def rust_files(*dirs):
    for d in dirs:
        if d.is_file():
            yield d
        elif d.is_dir():
            yield from (p for p in d.rglob("*.rs") if "target" not in p.parts)


def members():
    """(package name, package directory) of every workspace package."""
    text = (ROOT / "Cargo.toml").read_text()
    block = re.search(r"^members\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    dirs = [ROOT] + [ROOT / d for d in re.findall(r'"([^"]+)"', block)]
    for d in dirs:
        name = re.search(r'^name\s*=\s*"([^"]+)"', (d / "Cargo.toml").read_text(), re.M)
        yield name.group(1), d


def package_files(d):
    if d == ROOT:
        return rust_files(ROOT / "src", ROOT / "tests", ROOT / "examples", ROOT / "build.rs")
    return rust_files(d)


def dependency_edges(d):
    section = None
    for line in (d / "Cargo.toml").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif section in ("dependencies", "dev-dependencies", "build-dependencies") and "=" in line:
            yield section, line.split("=", 1)[0].split(".", 1)[0].strip()


def load_allow_list(problems):
    allowed = {}
    for number, raw in enumerate(ALLOW.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        if not reason.strip():
            problems.append(f"{ALLOW.name}:{number}: `{key}` has no reason")
        allowed[key] = number
    return allowed


def main():
    problems = []
    allowed = load_allow_list(problems)
    used = set()

    everything = {p: strip(p.read_text()) for p in rust_files(
        ROOT / "crates", ROOT / "src", ROOT / "tests", ROOT / "examples", ROOT / "benchmark"
    )}
    examples = "\n".join(strip(doc_examples(p.read_text())) for p in everything)

    for crate in sorted((ROOT / "crates").iterdir()):
        src = crate / "src"
        library = [p for p in rust_files(src) if (src / "bin") not in p.parents]
        outside = "\n".join(t for p, t in everything.items() if p not in library)
        outside += "\n" + examples
        words = set(WORD.findall(outside))
        paths = set(re.findall(r"(\w+)\s*::", outside)) | set(re.findall(r"::\s*(\w+)", outside))
        for use in re.findall(r"\buse\b[^;]*;", outside):
            paths |= set(WORD.findall(use))
        items = []
        for path in sorted(library):
            text = library_source(path)
            for m in ITEM.finditer(text):
                kind, name = m.groups()
                if kind == "mod" and text[m.end():].lstrip().startswith("{"):
                    continue
                number = text.count("\n", 0, m.start()) + 1
                items.append((path, number, kind, name, interface(kind, text, m.end())))
        # An item whose name no outside file writes is still reached when a
        # reached item's interface (a signature, a public field, a variant)
        # names it: a returned struct is used through its fields.
        reached = {name for _, _, kind, name, _ in items if kind != "mod" and name in words}
        grown = True
        while grown:
            grown = False
            for _, _, kind, name, face in items:
                if name in reached:
                    new = set(WORD.findall(face)) - reached
                    if new:
                        reached |= new
                        grown = True
        lib_name = "bnff_" + crate.name
        for path, number, kind, name, _ in items:
            named = name in paths if kind == "mod" else name in reached
            key = f"{lib_name}::{name}"
            if key in allowed:
                used.add(key)
                if named:
                    problems.append(f"{ALLOW.name}:{allowed[key]}: `{key}` is named outside; drop the entry")
            elif not named:
                where = path.relative_to(ROOT)
                problems.append(f"{where}:{number}: `pub {kind} {name}` is named outside {lib_name} by no file")

    for package, d in members():
        text = "\n".join(strip(p.read_text()) for p in package_files(d))
        for section, dep in dependency_edges(d):
            ident = dep.replace("-", "_")
            if not re.search(rf"\b{ident}\b", text):
                where = (d / "Cargo.toml").relative_to(ROOT)
                problems.append(f"{where}: [{section}] `{dep}` is named by no .rs file of {package}")

    for key, number in allowed.items():
        if key not in used:
            problems.append(f"{ALLOW.name}:{number}: `{key}` is not a pub item any more; drop the entry")

    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} public-surface problem(s)", file=sys.stderr)
        return 1
    print("public surface: every pub item, pub mod and dependency edge has an outside user")
    return 0


if __name__ == "__main__":
    sys.exit(main())
