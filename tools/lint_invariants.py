#!/usr/bin/env python3
"""Repo-invariant linter: machine-checks project contracts that neither the
compiler nor clang-tidy can express. Run in CI, as a ctest (`lint_invariants`),
or directly:

    python3 tools/lint_invariants.py [--root REPO_ROOT]
    python3 tools/lint_invariants.py --self-test

--self-test runs each rule that has fixtures under tools/lint_fixtures/
(<rule>_pos.cc must be flagged, <rule>_neg.cc must pass) and exits
non-zero if a rule misses its positive or flags its negative.

Rules
-----
raw-concurrency-primitive
    No naked std::mutex / std::lock_guard / std::condition_variable / ... in
    src/ outside src/common/mutex.h and the SCT runtime (src/testing/sct/,
    which implements the instrumented types and cannot recurse into them).
    The wrappers carry the Clang thread-safety annotations; a naked
    primitive is invisible to `-Wthread-safety` and therefore unchecked.

decode-bounds
    Every wire-decode translation unit (one defining a `Decode*` function
    taking `const Bytes&`) must consume input through the bounds-checked
    Reader and test `ok()`. Byzantine peers control these bytes.

decode-fuzz-coverage
    Every `Decode*(const Bytes&)` wire function declared in a src/ header
    must be exercised by tests/wire_fuzz_test.cc (random buffers,
    truncations, bit flips). A decoder nobody fuzzes is a decoder a peer
    fuzzes for you, in production.

no-assert
    No `assert(` in src/ (and no <cassert>/<assert.h> includes): NDEBUG
    builds would silently drop protocol invariants. Use CLANDAG_CHECK /
    CLANDAG_CHECK_MSG (common/check.h), which are active in release builds.

naked-thread-spawn
    No std::thread / std::jthread in src/ outside src/common/thread.h and
    the SCT runtime itself (src/testing/sct/). All spawns go through
    clandag::Thread so the deterministic schedule explorer (DESIGN.md §13)
    sees every thread; a naked spawn is invisible to CLANDAG_SCT builds and
    its interleavings are never explored. (std::thread::id and
    std::this_thread remain fine — the rule targets spawning, not ids.)

threading-contract
    Every src/ header that includes <thread>, <atomic>, <mutex>,
    <condition_variable> or common/mutex.h must carry a threading-contract
    comment (a line containing `Threading:` or `Thread-safety:`) stating
    which thread owns what and which locks guard what.

ingress-queue-caps
    Every container member in a src/ingress/ header must reference the named
    constant (kMax*) or options field (max_*) that caps it, in a comment on
    or directly above its declaration, and the header must carry a
    threading-contract comment. The ingress subsystem's core promise is
    bounded memory under overload (explicit backpressure, never unbounded
    queuing); an uncapped container there is a liveness bug a Byzantine
    client population will find.

pool-capacity-contract
    Same contract as ingress-queue-caps, applied to the hot-path pools in
    src/common/pool.h and src/common/work_pool.h: every container member must
    name the kMax* constant or max_* option that caps it, and each header must
    carry a threading-contract comment. The pools sit under every message the
    node sends or verifies; an uncapped free list or job queue is unbounded
    memory on the hot path.

hot-path-annotation
    On the hot-path surface (src/net/tcp_transport.*, src/rbc/,
    src/consensus/sailfish.*), every function declaration that acquires the
    loop ThreadRole — CLANDAG_REQUIRES on a *role* capability — must state
    its temperature: CLANDAG_HOT / CLANDAG_COLD on the declaration, or a
    `// cold:` justification comment within the three lines above. The
    clandag-hotpath-alloc and clandag-loop-blocking checks key on these
    annotations; an unlabeled loop-role function silently escapes both.

nolint-justification
    A `NOLINT` / `NOLINTNEXTLINE` / `NOLINTBEGIN` that suppresses a
    clandag-* protocol check (or names no check at all, which suppresses
    every check) must carry a justification: a `: reason` after the check
    list, or a // comment on the line directly above. The clandag-* checks
    encode safety arguments (DESIGN.md §10); silencing one silently is how
    a quorum bug ships.

hmac-per-call-key
    No `HmacSha256(` call outside src/crypto/ and tests/. The one-shot MAC
    re-hashes the key's ipad and opad blocks on every call, doubling the
    cost of a short authenticator; protocol code authenticates through
    Keychain (or an HmacKey, which caches both key schedules). The crypto
    layer defines the one-shot form and tests use it as the reference.

appnode-assembly
    AppNodes are built only by the cluster builder (src/core/cluster.cc):
    no `std::make_unique` or `new` of an AppNode, and no
    MessageHandler that holds an AppNode pointer and forwards OnMessage to
    it, anywhere else in src/, bench/, examples/, tests/ or tools/. Each
    hand-wired copy of the keychain/topology/runtime/start-order wiring
    drifts from the others; harnesses hook into the builder's setup and
    wrap callbacks instead. perfbench/ is not scanned (the benchmark keeps a
    frozen copy of its wiring).

unset-knob
    Every field of a `struct *Config` / `*Options` in a src/ header must be
    written in src/, bench/, examples/, tests/, tools/ or perfbench/: by an
    assignment or designated initializer through `.` / `->`, or by a
    positional `Foo{a, b}`. Copying another unset knob does not count.
    Fields of config-struct type are skipped. A knob nobody turns is a
    constant behind a config API, and the code only its other values reach
    is untested: make it a named constant next to its user (caps as kMax*).

A finding can be waived on its line with `// lint:allow(<rule-name>)` plus a
reason; waivers are expected to be rare and reviewed.
"""

import argparse
import re
import sys
from pathlib import Path

PRIMITIVE_RE = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex"
    r"|shared_timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock"
    r"|condition_variable|condition_variable_any)\b"
)
PRIMITIVE_INCLUDE_RE = re.compile(r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>")
# Free function: std::optional<T> DecodeFoo(const Bytes& ...)
FREE_DECODE_RE = re.compile(r"std::optional<[^<>]+>\s+(Decode\w*)\s*\(\s*const\s+Bytes\s*&")
# Static member: static std::optional<T> Decode(const Bytes& ...)
MEMBER_DECODE_RE = re.compile(
    r"static\s+std::optional<\s*(\w+)\s*>\s+Decode\s*\(\s*const\s+Bytes\s*&"
)
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
ASSERT_INCLUDE_RE = re.compile(r"#\s*include\s*[<\"](cassert|assert\.h)[>\"]")
CONCURRENCY_INCLUDE_RE = re.compile(
    r"#\s*include\s*(?:<(thread|atomic|mutex|condition_variable|shared_mutex)>"
    r"|\"common/mutex\.h\")"
)
CONTRACT_RE = re.compile(r"Threading:|Thread-safety:")
# A container data member of an ingress class: std::deque<...> foo_;
INGRESS_CONTAINER_RE = re.compile(
    r"std::(deque|vector|map|unordered_map|unordered_set|set|list|priority_queue)<"
)
INGRESS_MEMBER_RE = re.compile(r">\s+(\w+_)\s*;")
INGRESS_CAP_REF_RE = re.compile(r"\bkMax\w+|\bmax_\w+|[Bb]ounded")
WAIVER_RE = re.compile(r"//\s*lint:allow\(([\w-]+)\)")
NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?(?:\(([^)]*)\))?(.*)")

# The annotated wrappers themselves legitimately hold the naked primitives,
# and the SCT runtime underneath them must not recurse into the instrumented
# types it implements. Prefix-matched: a trailing '/' exempts a directory.
PRIMITIVE_EXEMPT_PREFIXES = (
    "src/common/mutex.h",
    "src/common/thread_annotations.h",
    "src/testing/sct/",
)


def _path_exempt(rel: str, prefixes) -> bool:
    return any(rel == p or (p.endswith("/") and rel.startswith(p))
               for p in prefixes)

# `std::thread` / `std::jthread` spawns outside the SCT-aware wrapper. The
# lookahead spares `std::thread::id` (thread identity, not spawning).
THREAD_SPAWN_RE = re.compile(r"std::jthread\b|std::thread\b(?!::)")
# Prefix-matched (a trailing '/' exempts a whole directory): the wrapper
# holds the real std::thread, and the SCT runtime underneath it may not
# recurse into itself.
THREAD_SPAWN_EXEMPT_PREFIXES = ("src/common/thread.h", "src/testing/sct/")

# A call of the one-shot HMAC. Scanned in every C++ tree but tests/; the
# crypto layer and the linter's own fixtures are exempt.
HMAC_CALL_RE = re.compile(r"\bHmacSha256\s*\(")
HMAC_SCAN_DIRS = ("src", "bench", "examples", "perfbench", "tools")
HMAC_EXEMPT_PREFIXES = ("src/crypto/", "tools/lint_fixtures/")
CXX_SUFFIXES = {".h", ".cc", ".cpp"}

# AppNode construction, qualified or not, outside the cluster builder.
APPNODE_NEW_RE = re.compile(
    r"\bmake_unique\s*<\s*(?:\w+::)*AppNode\s*>|\bnew\s+(?:\w+::)*AppNode\b")
# A MessageHandler subclass: its body is then checked for AppNode forwarding.
HANDLER_DECL_RE = re.compile(
    r"\b(?:struct|class)\s+(\w+)\s*(?:final\s*)?:\s*(?:public\s+)?"
    r"(?:\w+::)*MessageHandler\b")
APPNODE_MEMBER_RE = re.compile(r"\bAppNode\s*[*&]")
FORWARD_CALL_RE = re.compile(r"(?:->|\.)\s*OnMessage\s*\(")
APPNODE_SCAN_DIRS = ("src", "bench", "examples", "tests", "tools")
APPNODE_EXEMPT_PREFIXES = ("src/core/cluster.cc", "tools/lint_fixtures/")

# unset-knob: the config structs, their fields, and every write to them.
KNOB_STRUCT_RE = re.compile(r"^(\s*)struct\s+(\w*(?:Config|Options))\s*\{")
KNOB_OUTER_RE = re.compile(r"^(?:class|struct)\s+(\w+)")
KNOB_FIELD_RE = re.compile(
    r"^(?!\s*(?:static|using|friend|enum|struct|class|return|typedef)\b)"
    r"\s*(?:const\s+)?([^=;{}]*?[\w>*&])\s+(\w+)\s*(?:=[^;]*|\{[^;]*\})?;\s*$")
KNOB_WRITE_RE = re.compile(
    r"(\w+)?\s*(?:\.|->)\s*(\w+)\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)\s*([^;,)}]*)")
KNOB_READ_RE = re.compile(r"^(?:\w+\s*(?:\.|->)\s*)*(\w+)\s*(?:\.|->)\s*(\w+)$")
KNOB_DECL_RE = re.compile(r"\b(?:\w+::)*(\w+)\s*[&*]?\s+[&*]?(\w+)\s*[;,)={(\[]")
KNOB_BRACE_RE = re.compile(r"\b((?:\w+::)*)(\w+)\s*(?:\w+\s*)?(?:=\s*)?\{([^{}]*)\}")
KNOB_SCAN_DIRS = ("src", "bench", "examples", "tests", "tools", "perfbench")

FIXTURE_DIR = Path(__file__).resolve().parent / "lint_fixtures"


def strip_comments(line: str) -> str:
    """Drops // comments; good enough for rule matching (no /* */ in repo style)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def collect_knobs(paths):
    """The fields of every `struct *Config` / `*Options` in `paths`, in
    declaration order; `outer` is the top-level class a nested struct is in."""
    knobs = []
    for path in paths:
        lines, outer = path.read_text().splitlines(), None
        for start, line in enumerate(lines):
            outer = (m := KNOB_OUTER_RE.match(line)) and m.group(1) or outer
            if not (struct := KNOB_STRUCT_RE.match(line)):
                continue
            depth = 0
            for lineno, body in enumerate(lines[start:], start + 1):
                code = strip_comments(body)
                if depth == 1 and (field := KNOB_FIELD_RE.match(code)):
                    knobs.append({
                        "id": (str(path), start, field.group(2)), "path": path,
                        "struct": struct.group(2), "name": field.group(2),
                        "type": field.group(1).split("::")[-1], "lineno": lineno,
                        "line": body, "outer": outer if struct.group(1) else None})
                depth += code.count("{") - code.count("}")
                if depth <= 0 and lineno > start + 1:
                    break
    return knobs


def is_config_type(name):
    return name.endswith(("Config", "Options"))


def knob_writes(paths, knobs, written):
    """`written` plus the ids of every knob some line of `paths` writes."""
    by_name, sub_types = {}, {}
    for k in knobs:
        by_name.setdefault(k["name"], []).append(k)
        if is_config_type(k["type"]):
            sub_types.setdefault(k["name"], set()).add(k["type"])
    structs = {k["struct"] for k in knobs}
    written, copies = set(written), []
    for path in paths:
        lines = [strip_comments(l) for l in path.read_text().splitlines()]
        decls = [(i, d.group(2), d.group(1)) for i, line in enumerate(lines)
                 for d in KNOB_DECL_RE.finditer(line) if d.group(1) in structs]

        def resolve(recv, name, at):
            # `recv.name`, typed by recv's nearest declaration in this file,
            # else by a config-typed field called recv; else any `name`.
            seen = [(i, t) for i, v, t in decls if v == recv]
            before = [s for s in seen if s[0] <= at]
            types = ({max(before)[1]} if before else {t for _, t in seen}
                     or sub_types.get(recv, set()))
            named = by_name.get(name, [])
            return {k["id"] for k in [k for k in named if k["struct"] in types] or named}

        for i, line in enumerate(lines):
            for w in KNOB_WRITE_RE.finditer(line):
                if w.group(2) not in by_name:
                    continue
                targets = resolve(w.group(1), w.group(2), i)
                read = KNOB_READ_RE.match(w.group(3).strip())
                if read and read.group(2) in by_name:
                    copies.append((targets, resolve(read.group(1), read.group(2), i)))
                else:
                    written |= targets
            for b in KNOB_BRACE_RE.finditer(line):
                qual, struct, args = b.group(1), b.group(2), b.group(3).strip()
                if struct not in structs or not args or args.startswith("."):
                    continue
                count = 1 + re.sub(r"\([^()]*\)", "", args).count(",")
                named = [k for k in knobs if k["struct"] == struct]
                outer = qual[:-2].split("::")[-1] if qual else None
                scoped = [k for k in named if k["outer"] == outer] or named
                for sid in {k["id"][:2] for k in scoped}:
                    fields = [k["id"] for k in scoped if k["id"][:2] == sid]
                    written |= set(fields[:count])
    while any(s & written and not t <= written for t, s in copies):
        for t, s in copies:
            if s & written:
                written |= t
    return written


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings = []

    def report(self, rule, path, lineno, msg, line=""):
        if WAIVER_RE.search(line) and WAIVER_RE.search(line).group(1) == rule:
            return
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {msg}")

    def src_files(self, suffixes):
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix in suffixes and path.is_file():
                yield path

    # -- Rule: raw-concurrency-primitive ------------------------------------
    def check_primitives(self):
        for path in self.src_files({".h", ".cc"}):
            if _path_exempt(str(path.relative_to(self.root)),
                            PRIMITIVE_EXEMPT_PREFIXES):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_comments(line)
                m = PRIMITIVE_RE.search(code) or PRIMITIVE_INCLUDE_RE.search(code)
                if m:
                    self.report(
                        "raw-concurrency-primitive", path, lineno,
                        f"use the annotated wrappers in common/mutex.h instead of "
                        f"'{m.group(0).strip()}' (invisible to -Wthread-safety)",
                        line)

    # -- Rule: naked-thread-spawn -------------------------------------------
    def check_thread_spawns(self):
        for path in self.src_files({".h", ".cc"}):
            if _path_exempt(str(path.relative_to(self.root)),
                            THREAD_SPAWN_EXEMPT_PREFIXES):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_comments(line)
                m = THREAD_SPAWN_RE.search(code)
                if m:
                    self.report(
                        "naked-thread-spawn", path, lineno,
                        f"'{m.group(0)}' bypasses clandag::Thread "
                        f"(common/thread.h); a naked spawn is invisible to "
                        f"the SCT schedule explorer",
                        line)

    # -- Rule: hmac-per-call-key --------------------------------------------
    def check_hmac_per_call_key(self, paths=None):
        if paths is None:
            paths = [p for top in HMAC_SCAN_DIRS
                     for p in sorted((self.root / top).rglob("*"))
                     if p.suffix in CXX_SUFFIXES and p.is_file()]
        for path in paths:
            if _path_exempt(str(path.relative_to(self.root)),
                            HMAC_EXEMPT_PREFIXES):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if HMAC_CALL_RE.search(strip_comments(line)):
                    self.report(
                        "hmac-per-call-key", path, lineno,
                        "one-shot HmacSha256 re-hashes the key pads per call; "
                        "authenticate through Keychain or a cached HmacKey "
                        "(crypto/hmac.h)",
                        line)

    # -- Rule: appnode-assembly ---------------------------------------------
    def check_appnode_assembly(self, paths=None):
        if paths is None:
            paths = [p for top in APPNODE_SCAN_DIRS
                     for p in sorted((self.root / top).rglob("*"))
                     if p.suffix in CXX_SUFFIXES and p.is_file()]
        for path in paths:
            if _path_exempt(str(path.relative_to(self.root)),
                            APPNODE_EXEMPT_PREFIXES):
                continue
            lines = path.read_text().splitlines()
            code = [strip_comments(l) for l in lines]
            for lineno, line in enumerate(code, 1):
                if APPNODE_NEW_RE.search(line):
                    self.report(
                        "appnode-assembly", path, lineno,
                        "AppNode built outside the cluster builder; use "
                        "Cluster (core/cluster.h) with a setup/wrap hook",
                        lines[lineno - 1])
            for lineno, line in enumerate(code, 1):
                decl = HANDLER_DECL_RE.search(line)
                if not decl:
                    continue
                # The class body: from the first '{' to its matching '}'.
                depth, body, started = 0, [], False
                for later in code[lineno - 1:]:
                    for ch in later:
                        if ch == "{":
                            depth += 1
                            started = True
                        elif ch == "}":
                            depth -= 1
                    body.append(later)
                    if started and depth <= 0:
                        break
                text = "\n".join(body)
                if APPNODE_MEMBER_RE.search(text) and FORWARD_CALL_RE.search(text):
                    self.report(
                        "appnode-assembly", path, lineno,
                        f"'{decl.group(1)}' forwards messages to an AppNode: "
                        f"the cluster builder already routes a transport to "
                        f"the node built after it",
                        lines[lineno - 1])

    # -- Rule: unset-knob ---------------------------------------------------
    def check_unset_knobs(self, paths=None):
        headers = paths
        if paths is None:
            headers = list(self.src_files({".h"}))
            paths = [p for top in KNOB_SCAN_DIRS
                     for p in sorted((self.root / top).rglob("*"))
                     if p.suffix in CXX_SUFFIXES and p.is_file()
                     and not _path_exempt(str(p.relative_to(self.root)),
                                          ("tools/lint_fixtures/",))]
        knobs = collect_knobs(headers)
        # A waived knob is a real one, so copying it counts as a write.
        waived = {k["id"] for k in knobs
                  if "lint:allow(unset-knob)" in k["line"]}
        written = knob_writes(paths, knobs, waived)
        for k in knobs:
            if k["id"] not in written and not is_config_type(k["type"]):
                self.report(
                    "unset-knob", k["path"], k["lineno"],
                    f"{k['struct']}::{k['name']} is written by no caller; make "
                    f"it a named constant next to its user (caps as kMax*)",
                    k["line"])

    # -- Rules: decode-bounds + decode-fuzz-coverage ------------------------
    def check_decoders(self):
        fuzz_path = self.root / "tests" / "wire_fuzz_test.cc"
        fuzz_text = fuzz_path.read_text() if fuzz_path.exists() else ""
        for path in self.src_files({".h"}):
            text = path.read_text()
            symbols = []  # (lineno, display, fuzz_needles)
            enclosing = None
            for lineno, line in enumerate(text.splitlines(), 1):
                code = strip_comments(line)
                decl = re.match(r"\s*(?:struct|class)\s+(\w+)", code)
                if decl:
                    enclosing = decl.group(1)
                free = FREE_DECODE_RE.search(code)
                if free:
                    symbols.append((lineno, free.group(1), [free.group(1) + "("]))
                member = MEMBER_DECODE_RE.search(code)
                if member:
                    name = enclosing or member.group(1)
                    symbols.append((lineno, f"{name}::Decode",
                                    [f"{name}::Decode"]))
            if not symbols:
                continue
            impl = path.with_suffix(".cc")
            impl_text = impl.read_text() if impl.exists() else text
            if ".ok()" not in impl_text:
                self.report(
                    "decode-bounds", path, symbols[0][0],
                    f"decoder implementation {impl.name} never checks Reader "
                    f"bounds (expected a `.ok()` check)")
            for lineno, display, needles in symbols:
                if not any(n in fuzz_text for n in needles):
                    self.report(
                        "decode-fuzz-coverage", path, lineno,
                        f"{display} has no fuzz-corpus entry in "
                        f"tests/wire_fuzz_test.cc",
                        text.splitlines()[lineno - 1])

    # -- Rule: no-assert ----------------------------------------------------
    def check_asserts(self):
        for path in self.src_files({".h", ".cc"}):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_comments(line)
                if "static_assert" in code:
                    code = code.replace("static_assert", "")
                if ASSERT_RE.search(code) or ASSERT_INCLUDE_RE.search(code):
                    self.report(
                        "no-assert", path, lineno,
                        "assert() vanishes under NDEBUG; use CLANDAG_CHECK "
                        "(common/check.h), active in all build modes",
                        line)

    # -- Rule: nolint-justification -----------------------------------------
    def check_nolint_justifications(self):
        for path in self.src_files({".h", ".cc"}):
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, 1):
                m = NOLINT_RE.search(line)
                if not m or "NOLINTEND" in m.group(0):
                    continue
                checks = m.group(1)
                # A check list that names only non-clandag checks is stock
                # clang-tidy business; no parens at all suppresses everything,
                # clandag-* included.
                if checks is not None and "clandag-" not in checks:
                    continue
                trailer = (m.group(2) or "").strip()
                justified = trailer.startswith(":") and len(trailer) > 2
                if not justified and lineno >= 2:
                    prev = lines[lineno - 2].strip()
                    justified = prev.startswith("//") and len(prev) > 3 \
                        and "NOLINT" not in prev
                if not justified:
                    what = (f"NOLINT({checks})" if checks is not None
                            else "bare NOLINT (suppresses clandag-* too)")
                    self.report(
                        "nolint-justification", path, lineno,
                        f"{what} without a justification; append ': <reason>' "
                        f"or add a comment line above explaining why the "
                        f"protocol check is wrong here",
                        line)

    # -- Rule: hot-path-annotation ------------------------------------------
    # A declaration "acquires" the loop role when CLANDAG_REQUIRES names a
    # *role* capability (loop_role_, verify_role_, ...); Mutex-typed REQUIRES
    # are lock discipline, not thread pinning, and stay out of scope.
    HOT_PATH_PREFIXES = ("src/net/tcp_transport.", "src/rbc/",
                         "src/consensus/sailfish.")
    ROLE_REQUIRES_RE = re.compile(r"CLANDAG_REQUIRES\(\s*\w*role\w*\s*\)")
    TEMPERATURE_RE = re.compile(r"CLANDAG_HOT\b|CLANDAG_COLD\b")

    def check_hot_path_annotations(self):
        for path in self.src_files({".h", ".cc"}):
            rel = str(path.relative_to(self.root))
            if not rel.startswith(self.HOT_PATH_PREFIXES):
                continue
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, 1):
                if not self.ROLE_REQUIRES_RE.search(strip_comments(line)):
                    continue
                # The temperature macro may sit earlier on a wrapped
                # declaration; accept it on this line or the two above.
                decl = lines[max(0, lineno - 3):lineno]
                if any(self.TEMPERATURE_RE.search(l) for l in decl):
                    continue
                above = lines[max(0, lineno - 4):lineno - 1]
                if any(l.strip().startswith("//") and "cold:" in l
                       for l in above):
                    continue
                self.report(
                    "hot-path-annotation", path, lineno,
                    "loop-role function has no stated temperature: add "
                    "CLANDAG_HOT (commit path, checked by "
                    "clandag-hotpath-alloc) or CLANDAG_COLD / a '// cold:' "
                    "comment explaining why it is off the hot path",
                    line)

    # -- Rules: ingress-queue-caps + pool-capacity-contract -----------------
    def _check_capped_header(self, rule, path, contract_msg, cap_msg):
        lines = path.read_text().splitlines()
        if not any(CONTRACT_RE.search(l) for l in lines):
            self.report(rule, path, 1, contract_msg)
        for lineno, line in enumerate(lines, 1):
            code = strip_comments(line)
            if not (INGRESS_CONTAINER_RE.search(code)
                    and INGRESS_MEMBER_RE.search(code)):
                continue
            # The cap reference may sit in a trailing comment or in the
            # comment block directly above the declaration.
            context = [line]
            back = lineno - 2
            while back >= 0 and lines[back].strip().startswith("//"):
                context.append(lines[back])
                back -= 1
            if not any(INGRESS_CAP_REF_RE.search(c) for c in context):
                member = INGRESS_MEMBER_RE.search(code).group(1)
                self.report(
                    rule, path, lineno,
                    f"container member '{member}' does not name its cap: "
                    f"comment the kMax* constant or max_* option that "
                    f"bounds it ({cap_msg})",
                    line)

    def check_ingress_queue_caps(self):
        ingress = self.root / "src" / "ingress"
        if not ingress.is_dir():
            return
        for path in sorted(ingress.glob("*.h")):
            self._check_capped_header(
                "ingress-queue-caps", path,
                "ingress header has no 'Threading:' / 'Thread-safety:' "
                "contract comment (required for every src/ingress/ header)",
                "ingress memory must stay bounded under overload")

    def check_pool_capacity_contracts(self):
        for name in ("pool.h", "work_pool.h"):
            path = self.root / "src" / "common" / name
            if not path.is_file():
                continue
            self._check_capped_header(
                "pool-capacity-contract", path,
                f"src/common/{name} has no 'Threading:' / 'Thread-safety:' "
                f"contract comment (required for the hot-path pools)",
                "the pools sit under every message sent or verified; an "
                "uncapped container here is unbounded hot-path memory")

    # -- Rule: threading-contract -------------------------------------------
    def check_threading_contracts(self):
        for path in self.src_files({".h"}):
            text = path.read_text()
            include_line = None
            for lineno, line in enumerate(text.splitlines(), 1):
                if CONCURRENCY_INCLUDE_RE.search(line):
                    include_line = lineno
                    break
            if include_line is not None and not CONTRACT_RE.search(text):
                self.report(
                    "threading-contract", path, include_line,
                    "header pulls in concurrency machinery but has no "
                    "'Threading:' / 'Thread-safety:' contract comment "
                    "documenting thread ownership and lock discipline")

    def run(self):
        self.check_primitives()
        self.check_thread_spawns()
        self.check_decoders()
        self.check_asserts()
        self.check_nolint_justifications()
        self.check_hot_path_annotations()
        self.check_ingress_queue_caps()
        self.check_pool_capacity_contracts()
        self.check_threading_contracts()
        self.check_hmac_per_call_key()
        self.check_appnode_assembly()
        self.check_unset_knobs()
        return self.findings


# Rules with fixtures, by the name their fixture files carry.
FIXTURE_RULES = {
    "hmac_per_call_key": Linter.check_hmac_per_call_key,
    "appnode_assembly": Linter.check_appnode_assembly,
    "unset_knob": Linter.check_unset_knobs,
}


def self_test():
    failures = []
    for name, check in FIXTURE_RULES.items():
        for kind, want_findings in (("pos", True), ("neg", False)):
            fixture = FIXTURE_DIR / f"{name}_{kind}.cc"
            linter = Linter(FIXTURE_DIR)
            check(linter, [fixture])
            if bool(linter.findings) != want_findings:
                failures.append(f"{fixture.name}: expected "
                                f"{'findings' if want_findings else 'none'}, got "
                                f"{linter.findings or 'none'}")
    for f in failures:
        print(f)
    if failures:
        print(f"\nlint_invariants self-test: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants self-test: {len(FIXTURE_RULES)} rule(s) ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--self-test", action="store_true",
                        help="check the rules against tools/lint_fixtures/")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = Linter(args.root.resolve()).run()
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
