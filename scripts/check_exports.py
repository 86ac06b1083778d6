#!/usr/bin/env python3
"""Dead-export gate over the library interfaces.

Every `val NAME` in lib/**/*.mli must be mentioned, as a whole word
outside comments, by some .ml or .mli file of another module under
lib/, bin/, bench/, examples/ or test/ (test code counts as a caller).
A value only its own module uses belongs in its .ml alone.

Exceptions live in scripts/exports_allow.txt next to this script, one
`Module.name: reason` per line (`#` starts a comment). An entry that no
longer names an unused export fails the gate too, so the list cannot go
stale.

    python3 scripts/check_exports.py

Run from the root of the repository. Exit 0 when every export has a
caller or an allowed reason; a diagnostic per export and exit 1
otherwise. Stdlib only.
"""

import os
import re
import sys

ROOTS = ["lib", "bin", "bench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z0-9_']+")


# a character literal, so its quote is not taken for a string opener
CHAR = re.compile(r"'(\\(\d{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.)|[^\\'])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def strip_comments(src):
    """The source with (* ... *) comments (nested) blanked out; string,
    quoted-string and character literals are kept, so a comment opener
    or a quote inside one is not one."""
    out, depth, i, n = [], 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif depth:
            i += 1
        elif (i == 0 or not WORD.match(src[i - 1])) and (m := CHAR.match(src, i)):
            out.append(m.group())
            i = m.end()
        elif m := QUOTED.match(src, i):
            j = src.find("|" + m.group(1) + "}", m.end())
            j = n if j < 0 else j + len(m.group(1)) + 2
            out.append(src[i:j])
            i = j
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(src[i : j + 1])
            i = j + 1
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


def self_test():
    """A quote inside a character or quoted-string literal opens no
    string, so the comment after it stays a comment."""
    for src in ["let q = '\"' (* only_here *)", "let q = {|\"|} (* only_here *)",
                "let q = '\\'' (* only_here *)", "let x' = \"(*\" (* only_here *)"]:
        if "only_here" in strip_comments(src):
            sys.exit(f"check_exports.py: self-test failed on {src!r}")


def module_of(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


def sources():
    for root in ROOTS:
        for d, dirs, files in os.walk(root):
            dirs[:] = [x for x in dirs if x != "_build"]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(d, f)


def load_allow(path):
    allow = {}
    with open(path) as fh:
        for k, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, reason = line.partition(":")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{k}: want 'Module.name: reason'")
            allow[key.strip()] = reason.strip()
    return allow


def main(argv):
    if argv:
        sys.exit(__doc__)
    self_test()
    allow_path = os.path.join(os.path.dirname(__file__), "exports_allow.txt")
    if not os.path.isdir("lib"):
        sys.exit("check_exports.py: run from the root of the repository")
    allow = load_allow(allow_path)
    # words mentioned per module, comments excluded
    words = {}
    for path in sources():
        with open(path, encoding="utf-8") as fh:
            text = strip_comments(fh.read())
        words.setdefault((os.path.dirname(path), module_of(path)), set()).update(
            WORD.findall(text)
        )
    unused = []
    for path in sorted(p for p in sources() if p.startswith("lib" + os.sep)):
        if not path.endswith(".mli"):
            continue
        key = (os.path.dirname(path), module_of(path))
        with open(path, encoding="utf-8") as fh:
            names = VAL.findall(strip_comments(fh.read()))
        for name in names:
            if not any(name in ws for k, ws in words.items() if k != key):
                unused.append((f"{key[1]}.{name}", path))
    failed = False
    for qual, path in unused:
        if qual not in allow:
            print(f"{path}: {qual} is exported but nothing outside its module uses it")
            failed = True
    for qual in sorted(set(allow) - {q for q, _ in unused}):
        print(f"{allow_path}: {qual} is allowed but no longer an unused export")
        failed = True
    if failed:
        return 1
    print(f"exports ok ({len(unused)} allowed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
