#!/usr/bin/env python3
"""Dead-export gate over the library interfaces.

Every `val NAME` in lib/**/*.mli must be used, outside comments, by
some .ml or .mli file of another module under lib/, bin/, bench/ or
examples/. Test code does not count as a caller: a value that only
test/ reaches is dead machinery, and belongs in its .ml alone or
nowhere. A use is
`Module.NAME` (also at the end of a longer path, `Lib.Module.NAME`),
`X.NAME` where the file aliases `module X = ...Module`, or a bare
`NAME` in a file that opens `Module` (`open`, `let open`, `Module.(`).
A bare `NAME` alone is no use: it may be another module's value of the
same name. A `val` inside `module Sub : sig ... end` is qualified by
`Sub`, and reported and allowed under its full path, `Module.Sub.name`.
A value only its own module uses belongs in its .ml alone.

Exceptions live in scripts/exports_allow.txt next to this script, one
`Module.name: reason` per line (`#` starts a comment). The reason names
the test that needs the value and why no production call serves that
test. An entry that no longer names an unused export fails the gate
too, so the list cannot go stale.

    python3 scripts/check_exports.py

Run from the root of the repository. Exit 0 when every export has a
caller or an allowed reason; a diagnostic per export and exit 1
otherwise. Stdlib only.
"""

import os
import re
import sys

# the callers; test/ is deliberately absent
ROOTS = ["lib", "bin", "bench", "examples"]
WORD = re.compile(r"[A-Za-z0-9_']+")
MOD = r"[A-Z][A-Za-z0-9_']*"
PATH = rf"(?:{MOD}\s*\.\s*)*({MOD})"
# Module.name, taking the last module of a longer path
QUAL = re.compile(rf"(?<![A-Za-z0-9_'.])(?:{MOD}\s*\.\s*)*({MOD})\s*\.\s*([a-z_][A-Za-z0-9_']*)")
ALIAS = re.compile(rf"\bmodule\s+({MOD})\s*=\s*{PATH}")
OPEN = re.compile(rf"\bopen!?\s+{PATH}")
LOCAL_OPEN = re.compile(rf"(?<![A-Za-z0-9_'])({MOD})\s*\.\s*\(")
# the tokens of an interface that nest: sig/struct open a level, end closes
NEST = re.compile(rf"\bmodule\s+({MOD})\s*:\s*sig\b|\b(sig|struct|end)\b"
                  r"|\bval\s+([a-z_][A-Za-z0-9_']*)\s*:")


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


class Uses:
    """What one source file can reach: its bare words, its qualified
    `Module.name` pairs, its module aliases and the modules it opens."""

    def __init__(self, text):
        self.words = set(WORD.findall(text))
        self.pairs = set(QUAL.findall(text))
        self.aliases = dict(ALIAS.findall(text))
        self.opens = set(OPEN.findall(text)) | set(LOCAL_OPEN.findall(text))

    def resolve(self, m):
        seen = set()
        while m in self.aliases and m not in seen:
            seen.add(m)
            m = self.aliases[m]
        return m

    def uses(self, qual, name):
        if any(self.resolve(q) == qual for q, n in self.pairs if n == name):
            return True
        return name in self.words and any(self.resolve(m) == qual for m in self.opens)


def exported(mli_text, module):
    """(qualifier, name, path) of every val of an interface. The qualifier
    is the module itself, or the innermost `module Sub : sig` around the
    val; the path names the val from the top, `Module.Sub.name`."""
    stack, out = [], []
    for m in NEST.finditer(mli_text):
        sub, kw, val = m.groups()
        qual, path = stack[-1] if stack else (module, module)
        if sub:
            stack.append((sub, f"{path}.{sub}"))
        elif kw in ("sig", "struct"):
            stack.append((qual, path))
        elif kw == "end":
            if stack:
                stack.pop()
        else:
            out.append((qual, val, f"{path}.{val}"))
    return out


def unused_exports(files):
    """(path of the val, interface file) of every lib/ export that no
    other module's file in ROOTS uses; [files] maps a file name, relative
    to the root of the repository, to its text."""
    # what each module can reach, comments excluded
    uses = {}
    for path, text in files.items():
        if path.split("/", 1)[0] in ROOTS:
            uses.setdefault((os.path.dirname(path), module_of(path)), []).append(
                Uses(strip_comments(text)))
    unused = []
    for path in sorted(files):
        if not (path.startswith("lib/") and path.endswith(".mli")):
            continue
        key = (os.path.dirname(path), module_of(path))
        for qual, name, full in exported(strip_comments(files[path]), key[1]):
            if not any(u.uses(qual, name)
                       for k, us in uses.items() if k != key for u in us):
                unused.append((full, path))
    return unused


def self_test():
    """A quote inside a character or quoted-string literal opens no
    string, so the comment after it stays a comment; only a qualified,
    aliased or opened use of a value counts; a nested val goes by its
    full path; and only lib/, bin/, bench/ and examples/ hold callers."""
    for src in ["let q = '\"' (* only_here *)", "let q = {|\"|} (* only_here *)",
                "let q = '\\'' (* only_here *)", "let x' = \"(*\" (* only_here *)"]:
        if "only_here" in strip_comments(src):
            sys.exit(f"check_exports.py: self-test failed on {src!r}")
    for src, want in [("let x = bar 1", False),
                      ("let x = Other.bar 1", False),
                      ("let x = Foo.bar 1", True),
                      ("let x = Lib.Foo.bar 1", True),
                      ("module F = Lib.Foo\nlet x = F.bar 1", True),
                      ("open Lib.Foo\nlet x = bar 1", True),
                      ("let x = Foo.(bar 1)", True)]:
        if Uses(src).uses("Foo", "bar") != want:
            sys.exit(f"check_exports.py: self-test failed on {src!r}")
    nested = "val a : t\nval b : t\nmodule Sub : sig\n val b : t\nend\nval c : t"
    if exported(nested, "Foo") != [("Foo", "a", "Foo.a"), ("Foo", "b", "Foo.b"),
                                   ("Sub", "b", "Foo.Sub.b"), ("Foo", "c", "Foo.c")]:
        sys.exit("check_exports.py: self-test failed on a nested signature")
    # a nested val is reported under its full path, apart from its
    # namesake outside the sub-module
    lib = {"lib/foo.mli": nested, "lib/foo.ml": "", "lib/user.ml": "Foo.a Foo.c Foo.b"}
    if [q for q, _ in unused_exports(lib)] != ["Foo.Sub.b"]:
        sys.exit("check_exports.py: self-test failed on a nested val's name")
    # test/ is no caller; bench/ and examples/ are
    for caller, want in [("test/t.ml", ["Foo.Sub.b"]), ("bench/b.ml", []),
                         ("examples/e.ml", [])]:
        if [q for q, _ in unused_exports({**lib, caller: "Foo.Sub.b"})] != want:
            sys.exit(f"check_exports.py: self-test failed on a use in {caller}")


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
                sys.exit(f"{path}:{k}: want 'Module.name: reason' (a nested val as 'Module.Sub.name')")
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
    files = {}
    for path in sources():
        with open(path, encoding="utf-8") as fh:
            files[path.replace(os.sep, "/")] = fh.read()
    unused = unused_exports(files)
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
