#!/usr/bin/env python3
"""unisvd project linter: repo-specific invariants no off-the-shelf tool knows.

Rules (see docs/STATIC_ANALYSIS.md for the full catalog and rationale):

  raw-mutex        No raw std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable (& friends) anywhere under src/
                   except the annotated wrapper header
                   src/common/thread_annotations.hpp. Raw primitives are
                   invisible to Clang's -Wthread-safety analysis; the
                   wrappers are not.
  kernel-alloc     No heap allocation (new/malloc/std::vector growth/Matrix
                   construction) in kernel bodies: the regions marked
                   "// unisvd-lint: begin-kernel(...)" ... "end-kernel"
                   under src/small/, src/band/ and src/qr/.
  test-registration  Every tests/test_*.cpp must be registered in
                   CMakeLists.txt (the test glob or an explicit mention)
                   AND exercised by at least one sanitizer CI job in
                   .github/workflows/ci.yml (a job configuring
                   -DUNISVD_SANITIZE whose ctest invocation either has no
                   -R filter or matches the test name).
  bench-exit-gate  Every bench/*.cpp that mentions a gate must enforce it
                   through the process exit code (EXIT_FAILURE, return 1,
                   a failures counter, or a "cond ? 0 : 1" main return) —
                   a gate that only prints cannot fail CI.
  half-narrowing   No Half construction through a float intermediate
                   (Half(static_cast<float>(d)), Half(float(d)), ...):
                   double -> float -> half rounds twice; Half(double) and
                   narrow_from_double<Half> round once. tests/test_half*.cpp
                   is exempt — it regression-tests the buggy chain itself.

Suppressions (must carry a reason):
  // unisvd-lint: allow(<rule>) <reason>          this line and the next
  // unisvd-lint: begin-allow(<rule>) <reason>    until end-allow
  // unisvd-lint: end-allow

Usage:
  unisvd_lint.py [--root DIR] [--report FILE]
  unisvd_lint.py --self-test

Exit code 0 when clean, 1 on findings (or self-test failure).
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*unisvd-lint:\s*allow\((?P<rule>[\w-]+)\)\s*(?P<reason>.*)")
BEGIN_ALLOW_RE = re.compile(
    r"//\s*unisvd-lint:\s*begin-allow\((?P<rule>[\w-]+)\)\s*(?P<reason>.*)"
)
END_ALLOW_RE = re.compile(r"//\s*unisvd-lint:\s*end-allow")
BEGIN_KERNEL_RE = re.compile(r"//\s*unisvd-lint:\s*begin-kernel\((?P<name>[\w-]+)\)")
END_KERNEL_RE = re.compile(r"//\s*unisvd-lint:\s*end-kernel")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of // comments and string/char literal bodies so
    patterns only match code. Line-local (block comments spanning lines are
    not used in this codebase's rule scopes)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def suppressed_lines(lines: list[str], rule: str) -> set[int]:
    """1-based line numbers where `rule` is suppressed by allow comments."""
    out: set[int] = set()
    depth = 0
    for ln, raw in enumerate(lines, start=1):
        m = BEGIN_ALLOW_RE.search(raw)
        if m and m.group("rule") == rule:
            depth += 1
            out.add(ln)
            continue
        if END_ALLOW_RE.search(raw):
            if depth > 0:
                depth -= 1
            out.add(ln)
            continue
        if depth > 0:
            out.add(ln)
            continue
        m = ALLOW_RE.search(raw)
        if m and m.group("rule") == rule:
            out.add(ln)
            out.add(ln + 1)
    return out


def source_files(root: Path, sub: str, patterns=("*.cpp", "*.hpp", "*.h")) -> list[Path]:
    base = root / sub
    if not base.is_dir():
        return []
    files: list[Path] = []
    for pat in patterns:
        files.extend(base.rglob(pat))
    return sorted(set(files))


# ---------------------------------------------------------------------------
# Rule: raw-mutex
# ---------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any)\b"
)

WRAPPER_HEADER = Path("src") / "common" / "thread_annotations.hpp"


def check_raw_mutex(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in source_files(root, "src"):
        if path.resolve() == (root / WRAPPER_HEADER).resolve():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        allowed = suppressed_lines(lines, "raw-mutex")
        for ln, raw in enumerate(lines, start=1):
            if ln in allowed:
                continue
            m = RAW_MUTEX_RE.search(strip_comments_and_strings(raw))
            if m:
                findings.append(
                    Finding(
                        path.relative_to(root),
                        ln,
                        "raw-mutex",
                        f"raw std::{m.group(1)} outside {WRAPPER_HEADER}; use the "
                        "annotated unisvd::Mutex/LockGuard/UniqueLock/CondVar "
                        "wrappers so -Wthread-safety can check the lock discipline",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Rule: kernel-alloc
# ---------------------------------------------------------------------------

ALLOC_RE = re.compile(
    r"(\bnew\b(?!\s*\())|\bnew\s+\w|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("
    r"|std::vector\s*<|\.push_back\s*\(|\.emplace_back\s*\(|\.resize\s*\("
    r"|\.reserve\s*\(|\bMatrix\s*<[^>]+>\s+\w+\s*\(|std::make_unique|std::make_shared"
    r"|std::string\s+\w"
)


def kernel_alloc_in_file(root: Path, path: Path) -> list[Finding]:
    findings: list[Finding] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    allowed = suppressed_lines(lines, "kernel-alloc")
    in_kernel = False
    for ln, raw in enumerate(lines, start=1):
        if BEGIN_KERNEL_RE.search(raw):
            in_kernel = True
            continue
        if END_KERNEL_RE.search(raw):
            in_kernel = False
            continue
        if not in_kernel or ln in allowed:
            continue
        m = ALLOC_RE.search(strip_comments_and_strings(raw))
        if m:
            findings.append(
                Finding(
                    path.relative_to(root),
                    ln,
                    "kernel-alloc",
                    "heap allocation in a kernel body "
                    f"('{m.group(0).strip()}'): kernels work in caller scratch "
                    "or stack buffers; allocate in the driver and pass it in",
                )
            )
    return findings


# Directories whose kernel bodies are marked begin-kernel/end-kernel regions.
MARKED_KERNEL_DIRS = ("src/small", "src/band", "src/qr")


def check_kernel_alloc(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for sub in MARKED_KERNEL_DIRS:
        for path in source_files(root, sub):
            findings.extend(kernel_alloc_in_file(root, path))
    return findings


# ---------------------------------------------------------------------------
# Rule: test-registration
# ---------------------------------------------------------------------------


def ci_jobs(ci_text: str) -> dict[str, str]:
    """Split a GitHub workflow into {job_name: job_text} (2-space indent keys
    under the top-level jobs: block)."""
    jobs: dict[str, str] = {}
    in_jobs = False
    name = None
    buf: list[str] = []
    for line in ci_text.splitlines():
        if re.match(r"^jobs:\s*$", line):
            in_jobs = True
            continue
        if not in_jobs:
            continue
        if re.match(r"^\S", line):  # left the jobs: block
            break
        m = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
        if m:
            if name is not None:
                jobs[name] = "\n".join(buf)
            name = m.group(1)
            buf = []
            continue
        if name is not None:
            buf.append(line)
    if name is not None:
        jobs[name] = "\n".join(buf)
    return jobs


def run_blocks(job_body: str) -> list[str]:
    """The text of each `run:` step, with YAML `>`/`|` continuation lines
    folded in (a ctest flag like -R often lands on a continuation line)."""
    blocks: list[str] = []
    lines = job_body.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^(\s*)(?:-\s+)?run:\s*(.*)$", lines[i])
        if not m:
            i += 1
            continue
        indent = len(m.group(1))
        block = [m.group(2).lstrip(">|").strip()]
        i += 1
        while i < len(lines):
            line = lines[i]
            if line.strip() and (len(line) - len(line.lstrip())) <= indent:
                break
            block.append(line.strip())
            i += 1
        blocks.append(" ".join(b for b in block if b))
    return blocks


def sanitizer_covered_tests(ci_text: str, test_names: list[str]) -> set[str]:
    covered: set[str] = set()
    for _, body in ci_jobs(ci_text).items():
        if "-DUNISVD_SANITIZE" not in body:
            continue
        for block in run_blocks(body):
            if not re.search(r"\bctest\b", block):
                continue
            m = re.search(r"-R\s+(?:\"([^\"]+)\"|'([^']+)'|(\S+))", block)
            if not m:
                covered.update(test_names)  # unfiltered ctest runs everything
                continue
            pattern = next(g for g in m.groups() if g)
            try:
                rx = re.compile(pattern)
            except re.error:
                continue
            covered.update(t for t in test_names if rx.search(t))
    return covered


def check_test_registration(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    tests = sorted((root / "tests").glob("test_*.cpp")) if (root / "tests").is_dir() else []
    if not tests:
        return findings
    names = [t.stem for t in tests]

    cmake_path = root / "CMakeLists.txt"
    cmake = cmake_path.read_text(encoding="utf-8") if cmake_path.is_file() else ""
    glob_registers = re.search(r"GLOB[\w_]*\s+[\w_]+\s+[^)]*tests/test_\*?\.?\*?", cmake) or (
        "tests/test_*.cpp" in cmake
    )

    ci_path = root / ".github" / "workflows" / "ci.yml"
    ci_text = ci_path.read_text(encoding="utf-8") if ci_path.is_file() else ""
    covered = sanitizer_covered_tests(ci_text, names) if ci_text else set()

    for t, name in zip(tests, names):
        if not glob_registers and name not in cmake:
            findings.append(
                Finding(
                    t.relative_to(root),
                    1,
                    "test-registration",
                    f"{name} is not registered in CMakeLists.txt",
                )
            )
        if name not in covered:
            findings.append(
                Finding(
                    t.relative_to(root),
                    1,
                    "test-registration",
                    f"{name} is not exercised by any sanitizer CI job "
                    "(asan/tsan/ubsan in .github/workflows/ci.yml)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Rule: bench-exit-gate
# ---------------------------------------------------------------------------

GATE_WORD_RE = re.compile(r"\bgate", re.IGNORECASE)
EXIT_IDIOMS = [
    re.compile(r"\bEXIT_FAILURE\b"),
    re.compile(r"\breturn\s+1\s*;"),
    re.compile(r"\breturn\s+[^;]*\?\s*0\s*:\s*[1-9]"),
    re.compile(r"\breturn\s+[^;]*fail", re.IGNORECASE),
    re.compile(r"std::exit\s*\(\s*[1-9]"),
]


def check_bench_exit_gate(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    bench = root / "bench"
    if not bench.is_dir():
        return findings
    for path in sorted(bench.glob("*.cpp")):
        text = path.read_text(encoding="utf-8")
        if not GATE_WORD_RE.search(text):
            continue
        lines = text.splitlines()
        allowed = suppressed_lines(lines, "bench-exit-gate")
        gate_line = next(
            (ln for ln, raw in enumerate(lines, start=1) if GATE_WORD_RE.search(raw)), 1
        )
        if gate_line in allowed:
            continue
        if not any(rx.search(text) for rx in EXIT_IDIOMS):
            findings.append(
                Finding(
                    path.relative_to(root),
                    gate_line,
                    "bench-exit-gate",
                    "bench mentions a gate but never fails the process exit "
                    "code; a gate that only prints cannot fail CI",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Rule: half-narrowing
# ---------------------------------------------------------------------------

HALF_NARROW_RE = re.compile(
    r"Half\s*\(\s*static_cast<\s*float\s*>\s*\("
    r"|Half\s*\(\s*float\s*\("
    r"|Half\s*\(\s*\(\s*float\s*\)"
)

HALF_EXEMPT = re.compile(r"(common/half[\w.]*|common/precision\.hpp|tests/test_half\w*\.cpp)$")


def check_half_narrowing(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for sub in ("src", "tests", "bench", "examples"):
        for path in source_files(root, sub):
            rel = path.relative_to(root).as_posix()
            if HALF_EXEMPT.search(rel):
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            allowed = suppressed_lines(lines, "half-narrowing")
            for ln, raw in enumerate(lines, start=1):
                if ln in allowed:
                    continue
                if HALF_NARROW_RE.search(strip_comments_and_strings(raw)):
                    findings.append(
                        Finding(
                            path.relative_to(root),
                            ln,
                            "half-narrowing",
                            "Half built through a float intermediate rounds "
                            "twice; use Half(double) or "
                            "narrow_from_double<Half> (single rounding)",
                        )
                    )
    return findings


ALL_CHECKS = [
    check_raw_mutex,
    check_kernel_alloc,
    check_test_registration,
    check_bench_exit_gate,
    check_half_narrowing,
]


def run_all(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for check in ALL_CHECKS:
        findings.extend(check(root))
    return findings


# ---------------------------------------------------------------------------
# Self-test: fixture snippets that must trip each rule, and clean twins that
# must pass. Runs the real checkers over a synthetic mini-repo.
# ---------------------------------------------------------------------------


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def self_test() -> int:
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="unisvd_lint_selftest_") as tmp:
        root = Path(tmp)

        # --- raw-mutex ---------------------------------------------------
        _write(
            root,
            "src/common/thread_annotations.hpp",
            "#pragma once\n#include <mutex>\nnamespace unisvd { class Mutex { std::mutex mu_; }; }\n",
        )
        _write(
            root,
            "src/serve/bad_mutex.cpp",
            "#include <mutex>\nstd::mutex mu;\nvoid f() { std::lock_guard lock(mu); }\n",
        )
        _write(
            root,
            "src/serve/good_mutex.cpp",
            '#include "common/thread_annotations.hpp"\n'
            "unisvd::Mutex mu;  // a comment naming std::mutex is fine\n",
        )
        _write(
            root,
            "src/serve/allowed_mutex.cpp",
            "#include <mutex>\n"
            "// unisvd-lint: allow(raw-mutex) interop with a C API needing the raw type\n"
            "std::mutex raw_for_c_interop;\n",
        )
        f = check_raw_mutex(root)
        expect(any("bad_mutex.cpp" in str(x.path) for x in f), "raw-mutex: fixture must trip")
        expect(sum("bad_mutex.cpp" in str(x.path) for x in f) == 2, "raw-mutex: both raw lines flagged")
        expect(not any("good_mutex.cpp" in str(x.path) for x in f), "raw-mutex: clean twin must pass")
        expect(not any("allowed_mutex.cpp" in str(x.path) for x in f), "raw-mutex: allow() must suppress")
        expect(not any("thread_annotations.hpp" in str(x.path) for x in f), "raw-mutex: wrapper header exempt")

        # --- kernel-alloc ------------------------------------------------
        _write(
            root,
            "src/qr/tile_kernel.hpp",
            "#pragma once\n#include <vector>\n"
            "std::vector<float> plan;  // outside the region: fine\n"
            "// unisvd-lint: begin-kernel(tile)\n"
            "inline void tile(float* x, int w) { float rho[32] = {}; for (int j = 0; j < w; ++j) x[j] -= rho[j]; }\n"
            "// unisvd-lint: end-kernel\n",
        )
        _write(
            root,
            "src/qr/tile_kernel_bad.hpp",
            "#pragma once\n#include <vector>\n"
            "// unisvd-lint: begin-kernel(tile2)\n"
            "inline void tile2() { std::vector<float> v; v.push_back(1.0f); }\n"
            "// unisvd-lint: end-kernel\n",
        )
        _write(
            root,
            "src/small/marked.cpp",
            "#include <vector>\n"
            "std::vector<int> setup_table;  // outside any kernel region: fine\n"
            "// unisvd-lint: begin-kernel(demo)\n"
            "void kernel(float* w, int n) { for (int i = 0; i < n; ++i) w[i] *= 2.0f; }\n"
            "// unisvd-lint: end-kernel\n",
        )
        _write(
            root,
            "src/small/marked_bad.cpp",
            "#include <vector>\n"
            "// unisvd-lint: begin-kernel(demo2)\n"
            "void kernel2() { std::vector<int> scratch; }\n"
            "// unisvd-lint: begin-allow(kernel-alloc) cold fallback path\n"
            "void fallback() { std::vector<int> rare; }\n"
            "// unisvd-lint: end-allow\n"
            "// unisvd-lint: end-kernel\n",
        )
        _write(
            root,
            "src/band/replay.hpp",
            "#pragma once\n#include <vector>\n"
            "struct Batch { std::vector<float> rots; };  // outside the region: fine\n"
            "// unisvd-lint: begin-kernel(replay)\n"
            "inline void replay(float* u, int w) { for (int j = 0; j < w; ++j) u[j] *= 2.0f; }\n"
            "// unisvd-lint: end-kernel\n",
        )
        _write(
            root,
            "src/band/replay_bad.hpp",
            "#pragma once\n#include <vector>\n"
            "// unisvd-lint: begin-kernel(replay2)\n"
            "inline void replay2(int w) { std::vector<float> lane(w); }\n"
            "// unisvd-lint: end-kernel\n",
        )
        _write(
            root,
            "src/qr/gemm.hpp",
            "#pragma once\n#include <vector>\n"
            "std::vector<long> first(3);  // host-side grid bookkeeping: fine\n"
            "// unisvd-lint: begin-kernel(gemm)\n"
            "inline void gemm(double* c, const double* a, int n) { for (int i = 0; i < n; ++i) c[i] += a[i]; }\n"
            "// unisvd-lint: end-kernel\n",
        )
        _write(
            root,
            "src/qr/gemm_bad.hpp",
            "#pragma once\n#include <vector>\n"
            "// unisvd-lint: begin-kernel(gemm2)\n"
            "inline void gemm2(int n) { std::vector<double> pack(n); }\n"
            "// unisvd-lint: end-kernel\n",
        )
        f = check_kernel_alloc(root)
        expect(
            any("gemm_bad.hpp" in str(x.path) and x.line == 4 for x in f),
            "kernel-alloc: in-region alloc in the GEMM under src/qr/ must trip",
        )
        expect(
            not any(str(x.path).endswith("gemm.hpp") for x in f),
            "kernel-alloc: the GEMM's clean twin under src/qr/ must pass",
        )
        expect(
            any("tile_kernel_bad.hpp" in str(x.path) and x.line == 4 for x in f),
            "kernel-alloc: in-region alloc under src/qr/ must trip",
        )
        expect(
            not any(str(x.path).endswith("tile_kernel.hpp") for x in f),
            "kernel-alloc: src/qr/ clean twin must pass",
        )
        expect(
            any("replay_bad.hpp" in str(x.path) and x.line == 4 for x in f),
            "kernel-alloc: in-region alloc under src/band/ must trip",
        )
        expect(not any("replay.hpp" in str(x.path) for x in f), "kernel-alloc: src/band/ clean twin must pass")
        expect(
            any("marked_bad.cpp" in str(x.path) and x.line == 3 for x in f),
            "kernel-alloc: in-region alloc must trip",
        )
        expect(
            not any("marked_bad.cpp" in str(x.path) and x.line == 5 for x in f),
            "kernel-alloc: begin-allow block must suppress",
        )
        expect(not any("marked.cpp" in str(x.path) for x in f), "kernel-alloc: clean twin must pass")

        # --- test-registration -------------------------------------------
        _write(root, "tests/test_alpha.cpp", "int main() { return 0; }\n")
        _write(root, "tests/test_beta.cpp", "int main() { return 0; }\n")
        _write(
            root,
            "CMakeLists.txt",
            "file(GLOB UNISVD_TEST_SOURCES CONFIGURE_DEPENDS tests/test_*.cpp)\n",
        )
        _write(
            root,
            ".github/workflows/ci.yml",
            "name: ci\njobs:\n"
            "  asan:\n"
            "    steps:\n"
            "      - run: cmake -B build -DUNISVD_SANITIZE=address\n"
            "      - name: Test\n"
            "        run: >\n"
            "          ctest --test-dir build\n"
            "          -R 'test_alpha'\n",
        )
        f = check_test_registration(root)
        expect(
            any("test_beta" in str(x.path) and "sanitizer" in x.message for x in f),
            "test-registration: uncovered test must trip",
        )
        expect(
            not any("test_alpha" in str(x.path) for x in f),
            "test-registration: covered test must pass",
        )
        _write(
            root,
            ".github/workflows/ci.yml",
            "name: ci\njobs:\n"
            "  ubsan:\n"
            "    steps:\n"
            "      - run: cmake -B build -DUNISVD_SANITIZE=undefined\n"
            "      - run: ctest --test-dir build --output-on-failure\n",
        )
        f = check_test_registration(root)
        expect(not f, "test-registration: unfiltered sanitizer ctest covers everything")

        # --- bench-exit-gate ---------------------------------------------
        _write(
            root,
            "bench/bad_gate.cpp",
            '#include <cstdio>\nint main() { bool gate_ok = true; std::printf("GATE %d\\n", gate_ok); return 0; }\n',
        )
        _write(
            root,
            "bench/good_gate.cpp",
            "int main() { bool gate_ok = true; return gate_ok ? 0 : 1; }\n",
        )
        _write(root, "bench/no_gate.cpp", "int main() { return 0; }\n")
        f = check_bench_exit_gate(root)
        expect(any("bad_gate.cpp" in str(x.path) for x in f), "bench-exit-gate: print-only gate must trip")
        expect(not any("good_gate.cpp" in str(x.path) for x in f), "bench-exit-gate: exit-coded gate must pass")
        expect(not any("no_gate.cpp" in str(x.path) for x in f), "bench-exit-gate: gateless bench exempt")

        # --- half-narrowing ----------------------------------------------
        _write(
            root,
            "src/core/bad_half.cpp",
            '#include "common/half.hpp"\n'
            "unisvd::Half f(double d) { return unisvd::Half(static_cast<float>(d)); }\n"
            "unisvd::Half g(double d) { return unisvd::Half(float(d)); }\n",
        )
        _write(
            root,
            "src/core/good_half.cpp",
            '#include "common/precision.hpp"\n'
            "unisvd::Half f(double d) { return unisvd::narrow_from_double<unisvd::Half>(d); }\n"
            "unisvd::Half g(double d) { return unisvd::Half(d); }  // single rounding\n",
        )
        _write(
            root,
            "tests/test_half_roundtrip.cpp",
            "unisvd::Half f(double d) { return unisvd::Half(static_cast<float>(d)); }\n",
        )
        f = check_half_narrowing(root)
        expect(
            sum("bad_half.cpp" in str(x.path) for x in f) == 2,
            "half-narrowing: both float-chain lines must trip",
        )
        expect(not any("good_half.cpp" in str(x.path) for x in f), "half-narrowing: clean twin must pass")
        expect(
            not any("test_half_roundtrip" in str(x.path) for x in f),
            "half-narrowing: tests/test_half* exempt",
        )

    if failures:
        print("unisvd_lint self-test FAILED:")
        for what in failures:
            print(f"  - {what}")
        return 1
    print("unisvd_lint self-test passed (5 rules, trip + clean + suppression fixtures).")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None, help="repo root (default: script's parent dir)")
    ap.add_argument("--report", default=None, help="also write findings to this file")
    ap.add_argument("--self-test", action="store_true", help="run the rule fixtures and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    findings = run_all(root)
    report_lines = [str(f) for f in findings]
    if args.report:
        Path(args.report).write_text(
            "\n".join(report_lines) + ("\n" if report_lines else "unisvd_lint: clean\n"),
            encoding="utf-8",
        )
    if findings:
        print(f"unisvd_lint: {len(findings)} finding(s)")
        for line in report_lines:
            print(f"  {line}")
        return 1
    print("unisvd_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
