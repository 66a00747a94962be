"""The output checks accept the program's real output and catch tampering.

    python3 bench/test_checks.py

Each test runs one request of a workload in this process, checks the
real output, then alters it the way a wrong program might (a cut with
its right-hand side shifted by one, a dropped facet, a wrong ``gamma``)
and requires the check to reject it.
"""

import contextlib
import io
import os
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import aggclosure.cli as cli  # noqa: E402
from checks import CheckFailure  # noqa: E402
from workloads import build  # noqa: E402

WORKDIR = Path("bench") / ".work" / "test"


def run(req):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(req.argv)
    return code, out.getvalue()


class TamperTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._cwd = os.getcwd()
        os.chdir(HERE.parent)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.chdir(cls._cwd)

    def requests(self, workload):
        return build(workload, 7, WORKDIR / workload)

    def assertRejected(self, req, code, text):
        with self.assertRaises(CheckFailure):
            req.check(code, text)

    def test_cut_with_shifted_rhs(self):
        req = next(r for r in self.requests("separate-cold") if "/" in r.argv[3])
        code, out = run(req)
        req.check(code, out)
        cut, rest = out.split("  violation ")
        *coeffs, sense, rhs = cut.split()
        for shifted in (int(rhs) + 1, int(rhs) - 1):
            tampered = " ".join([*coeffs, sense, str(shifted)]) + "  violation " + rest
            self.assertRejected(req, code, tampered)

    def test_dropped_facet(self):
        for req in self.requests("fine-grid-1d")[:4]:
            code, out = run(req)
            req.check(code, out)
            lines = out.splitlines()
            closure_rows = lines[1 : lines.index("L")]
            for row in closure_rows:
                tampered = list(lines)
                tampered.remove(row)
                self.assertRejected(req, code, "\n".join(tampered) + "\n")

    def test_wrong_gamma(self):
        req = self.requests("verify-sweep")[0]
        code, out = run(req)
        req.check(code, out)
        self.assertIn("gamma=", out)
        head, tail = out.split("gamma=", 1)
        value, rest = tail.split("\n", 1) if "\n" in tail else (tail, "")
        for wrong in (int(value) - 1, int(value) + 1):
            self.assertRejected(req, code, f"{head}gamma={wrong}\n{rest}")

    def test_nonzero_exit(self):
        req = self.requests("kernel-nd")[0]
        code, out = run(req)
        req.check(code, out)
        self.assertRejected(req, 2, out)


if __name__ == "__main__":
    unittest.main()
