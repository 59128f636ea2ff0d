#!/usr/bin/env python3
"""Unit tests for scripts/crowd_lint.py: each rule must fire on a
seeded violation, stay quiet on the idiomatic equivalent, and honour
the `crowd-lint: allow(<rule>)` waiver. Run directly or via ctest
(test name `crowd_lint_unit`)."""

import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "scripts"))
import crowd_lint  # noqa: E402


def rules_firing(relpath, text):
    return sorted({v.rule for v in crowd_lint.lint_text(relpath, text)})


class FloatFormatRule(unittest.TestCase):
    def test_fires_on_low_precision_float_in_server(self):
        text = 'std::string s = StrFormat("%.6f", value);\n'
        self.assertEqual(rules_firing("src/server/protocol.cc", text),
                         ["float-format"])

    def test_fires_on_bare_g(self):
        self.assertEqual(
            rules_firing("src/server/service.cc",
                         'out += Format("%g", v);\n'),
            ["float-format"])

    def test_fires_on_17g_too(self):
        text = 'auto a = StrFormat("%.17g", v);\n'
        violations = crowd_lint.lint_text("src/server/protocol.cc", text)
        self.assertEqual([v.rule for v in violations], ["float-format"])
        self.assertIn("util/json.h", violations[0].message)

    def test_allows_integer_formats(self):
        text = 'auto b = StrFormat("%llu %zu %s %d", x, y, z, w);\n'
        self.assertEqual(rules_firing("src/server/protocol.cc", text), [])

    def test_out_of_scope_outside_server(self):
        self.assertEqual(
            rules_firing("src/stats/intervals.cc",
                         'StrFormat("[%.4f, %.4f]", lo, hi);\n'),
            [])

    def test_comment_mention_is_ignored(self):
        self.assertEqual(
            rules_firing("src/server/journal.cc",
                         "// doubles use %.6f here? no: see protocol\n"),
            [])


class IostreamRule(unittest.TestCase):
    def test_fires_on_cout_and_cerr_in_src(self):
        text = ('std::cout << "hi";\n'
                'std::cerr << "bye";\n')
        violations = crowd_lint.lint_text("src/core/evaluator.cc", text)
        self.assertEqual([v.rule for v in violations],
                         ["iostream", "iostream"])
        self.assertEqual([v.line for v in violations], [1, 2])

    def test_tools_and_tests_are_out_of_scope(self):
        text = 'std::cout << report;\n'
        self.assertEqual(rules_firing("tools/crowdeval.cc", text), [])
        self.assertEqual(rules_firing("tests/foo_test.cc", text), [])

    def test_waiver_suppresses(self):
        text = ("std::cerr << x;  "
                "// crowd-lint: allow(iostream) pre-logger abort path\n")
        self.assertEqual(rules_firing("src/util/logging.cc", text), [])


class RawMutexRule(unittest.TestCase):
    def test_fires_on_each_raw_type(self):
        for snippet in ("std::mutex mu_;",
                        "std::shared_mutex mu_;",
                        "std::lock_guard<std::mutex> l(mu_);",
                        "std::unique_lock<std::mutex> l(mu_);",
                        "std::scoped_lock l(a, b);"):
            self.assertIn(
                "raw-mutex",
                rules_firing("src/core/incremental.cc", snippet + "\n"),
                snippet)

    def test_shim_file_is_exempt(self):
        self.assertEqual(
            rules_firing("src/util/mutex.h",
                         "std::mutex mu_; std::unique_lock<std::mutex> "
                         "lock_;\n"),
            [])

    def test_shim_usage_is_clean(self):
        text = ("util::Mutex mu_;\n"
                "util::MutexLock lock(mu_);\n"
                "std::condition_variable cv_;\n")
        self.assertEqual(rules_firing("src/server/socket_server.h", text), [])


class RngRule(unittest.TestCase):
    def test_fires_on_rand_and_random_device(self):
        for snippet in ("int x = rand();",
                        "srand(42);",
                        "std::random_device rd;"):
            self.assertIn("rng",
                          rules_firing("src/sim/simulator.cc",
                                       snippet + "\n"),
                          snippet)

    def test_rng_module_is_exempt(self):
        self.assertEqual(
            rules_firing("src/rng/random.cc", "std::random_device rd;\n"),
            [])

    def test_identifier_suffix_rand_is_not_flagged(self):
        self.assertEqual(
            rules_firing("src/core/agreement.cc",
                         "double integrand(double x);\n"
                         "double y = integrand(0.5);\n"),
            [])


class RawByteReadRule(unittest.TestCase):
    def test_fires_on_memcpy_and_reinterpret_cast_in_server(self):
        for snippet in (
                "std::memcpy(&header, bytes.data(), sizeof(header));",
                "memcpy(out, p, n);",
                "auto* h = reinterpret_cast<const Header*>(data);"):
            self.assertIn(
                "raw-byte-read",
                rules_firing("src/server/snapshot.cc", snippet + "\n"),
                snippet)

    def test_fires_in_csv_loader(self):
        self.assertIn(
            "raw-byte-read",
            rules_firing("src/util/csv.cc",
                         "std::memcpy(buf, line.data(), line.size());\n"))

    def test_binary_io_is_exempt(self):
        text = ("std::memcpy(out, data_ + offset_, size);\n"
                "auto* p = reinterpret_cast<const uint8_t*>(src);\n")
        self.assertEqual(rules_firing("src/server/binary_io.cc", text), [])
        self.assertEqual(rules_firing("src/server/binary_io.h", text), [])

    def test_out_of_scope_elsewhere(self):
        text = "std::memcpy(dst, src, n);\n"
        self.assertEqual(rules_firing("src/core/evaluator.cc", text), [])
        self.assertEqual(rules_firing("src/util/string_util.cc", text), [])
        self.assertEqual(rules_firing("tests/foo_test.cc", text), [])

    def test_reader_api_usage_is_clean(self):
        text = ("server::ByteReader reader(bytes);\n"
                "CROWD_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());\n"
                "CROWD_RETURN_NOT_OK(reader.ReadBytes(&rec, sizeof(rec)));\n")
        self.assertEqual(rules_firing("src/server/journal.cc", text), [])

    def test_waiver_suppresses_sockaddr_cast(self):
        text = ("::bind(fd, reinterpret_cast<sockaddr*>(&addr),  "
                "// crowd-lint: allow(raw-byte-read)\n"
                "       sizeof(addr));\n")
        self.assertEqual(rules_firing("src/server/socket_server.cc", text),
                         [])

    def test_memcpy_identifier_suffix_is_not_flagged(self):
        self.assertEqual(
            rules_firing("src/server/journal.cc",
                         "size_t fast_memcpy_bytes = 0;\n"),
            [])


class RawPopcountRule(unittest.TestCase):
    def test_fires_on_std_and_builtin_popcount_in_src(self):
        for snippet in ("n += std::popcount(a[w] & b[w]);",
                        "n += __builtin_popcountll(a[w]);",
                        "n += __builtin_popcount(mask);"):
            self.assertEqual(
                rules_firing("src/data/overlap_index.cc", snippet + "\n"),
                ["raw-popcount"], snippet)

    def test_bitops_is_exempt(self):
        text = ("count += std::popcount(a[w] & b[w]);\n"
                "count += __builtin_popcountll(a[w] & b[w]);\n")
        self.assertEqual(rules_firing("src/util/bitops.cc", text), [])
        self.assertEqual(rules_firing("src/util/bitops.h", text), [])

    def test_out_of_scope_outside_src(self):
        text = "sink += std::popcount(bits[i] ^ pass);\n"
        self.assertEqual(rules_firing("perfbench/src/common.cc", text), [])
        self.assertEqual(rules_firing("tests/util_bitops_test.cc", text), [])
        self.assertEqual(rules_firing("bench/micro_core.cc", text), [])

    def test_kernel_call_and_plain_identifier_are_clean(self):
        text = ("size_t c = util::AndPopcount(a, b, words);\n"
                "size_t popcount_total = c;\n")
        self.assertEqual(rules_firing("src/core/triple_combiner.cc", text),
                         [])

    def test_waiver_suppresses(self):
        text = ("int k = std::popcount(mask);  "
                "// crowd-lint: allow(raw-popcount)\n")
        self.assertEqual(rules_firing("src/core/counts_tensor.cc", text), [])


class SpanNameRule(unittest.TestCase):
    def test_fires_on_nonconforming_names(self):
        for name in ("evaluate", "Core.Evaluate", "core.eval.deep",
                     "core-eval"):
            text = f'CROWD_SPAN("{name}");\n'
            self.assertIn("span-name",
                          rules_firing("src/core/m_worker.cc", text),
                          name)

    def test_accepts_stage_substage(self):
        text = ('CROWD_SPAN("core.evaluate_worker");\n'
                'CROWD_SPAN("journal.append");\n')
        self.assertEqual(rules_firing("src/core/m_worker.cc", text), [])


class ChangelogRule(unittest.TestCase):
    """Exercises the --base rule against a real throwaway git repo."""

    def _git(self, cwd, *args):
        subprocess.run(["git", "-c", "user.email=t@t", "-c",
                        "user.name=t", *args],
                       cwd=cwd, check=True, capture_output=True)

    def test_diff_without_changes_md_fires(self):
        with tempfile.TemporaryDirectory() as repo:
            self._git(repo, "init", "-q", "-b", "main")
            pathlib.Path(repo, "CHANGES.md").write_text("- seed\n")
            self._git(repo, "add", "."); self._git(repo, "commit", "-qm", "seed")
            pathlib.Path(repo, "code.cc").write_text("int x;\n")
            self._git(repo, "add", "."); self._git(repo, "commit", "-qm", "change")
            violations = crowd_lint.check_changelog(repo, "HEAD~1")
            self.assertEqual([v.rule for v in violations], ["changelog"])

    def test_diff_touching_changes_md_is_clean(self):
        with tempfile.TemporaryDirectory() as repo:
            self._git(repo, "init", "-q", "-b", "main")
            pathlib.Path(repo, "CHANGES.md").write_text("- seed\n")
            self._git(repo, "add", "."); self._git(repo, "commit", "-qm", "seed")
            pathlib.Path(repo, "CHANGES.md").write_text("- seed\n- PR\n")
            self._git(repo, "add", "."); self._git(repo, "commit", "-qm", "pr")
            self.assertEqual(crowd_lint.check_changelog(repo, "HEAD~1"), [])

    def test_empty_diff_is_clean(self):
        with tempfile.TemporaryDirectory() as repo:
            self._git(repo, "init", "-q", "-b", "main")
            pathlib.Path(repo, "CHANGES.md").write_text("- seed\n")
            self._git(repo, "add", "."); self._git(repo, "commit", "-qm", "seed")
            self.assertEqual(crowd_lint.check_changelog(repo, "HEAD"), [])


class TreeIsClean(unittest.TestCase):
    """The committed tree must be violation-free (the same property CI
    enforces; failing here means a rule or the tree regressed)."""

    def test_repo_lints_clean(self):
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir)
        total = []
        for relpath in crowd_lint.iter_files(root):
            with open(os.path.join(root, relpath), encoding="utf-8") as fh:
                total.extend(crowd_lint.lint_text(
                    relpath.replace(os.sep, "/"), fh.read()))
        self.assertEqual([str(v) for v in total], [])


if __name__ == "__main__":
    unittest.main()
