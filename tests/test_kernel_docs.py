"""Docs/kernel drift pins: the written story must match the code.

The one-kernel story is documented in three places -- the
``repro.configure`` table in docs/API.md, the backend/kernel section of the
README, and THEORY.md §8 -- and the degradation chain in
docs/RESILIENCE.md.  These tests check the accepted
kernel names, the env var and the kernel modules against the prose, so
adding a kernel back, renaming a module, or reordering the chain fails
loudly here instead of silently rotting the docs.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.queueing import kernels
from repro.resilience.degrade import DEGRADATION_CHAIN

ROOT = Path(__file__).resolve().parent.parent
API = ROOT / "docs" / "API.md"
README = ROOT / "README.md"
THEORY = ROOT / "docs" / "THEORY.md"
RESILIENCE = ROOT / "docs" / "RESILIENCE.md"

#: the names the stable surfaces accept (tests/queueing/test_kernels.py
#: pins that both resolve to the one kernel)
ACCEPTED = ("auto", "numpy")


class TestApiTable:
    def test_kernel_row_present_with_env_var(self):
        text = API.read_text(encoding="utf-8")
        row = next(
            (
                line
                for line in text.splitlines()
                if line.startswith("| `kernel` |")
            ),
            None,
        )
        assert row is not None, "docs/API.md lost the `kernel` configure row"
        assert "`REPRO_SOLVE_KERNEL`" in row
        for name in ACCEPTED:
            assert f"`{name}`" in row, f"kernel {name!r} missing from the row"
        # numba is documented as the error it is
        assert "`numba` raises `KernelUnavailableError`" in row

    def test_env_var_matches_registry(self):
        # the module-private constant is the single source of the env name
        assert kernels._ENV_VAR == "REPRO_SOLVE_KERNEL"
        assert "REPRO_SOLVE_KERNEL" in API.read_text(encoding="utf-8")


class TestReadme:
    def test_kernel_selection_documented(self):
        text = README.read_text(encoding="utf-8")
        assert "`--kernel`" in text
        assert "REPRO_SOLVE_KERNEL" in text
        for name in ACCEPTED:
            assert f"`{name}`" in text
        assert "`numba` is an error" in text

    def test_conformance_suite_referenced(self):
        assert (
            "tests/queueing/test_kernel_conformance.py"
            in README.read_text(encoding="utf-8")
        )
        assert (ROOT / "tests/queueing/test_kernel_conformance.py").is_file()

    def test_degradation_chain_in_readme_matches_policy(self):
        text = README.read_text(encoding="utf-8")
        chain = "`" + " → ".join(DEGRADATION_CHAIN) + "`"
        assert chain in text, f"README chain mention != {DEGRADATION_CHAIN}"


class TestTheory:
    def test_section8_names_real_modules(self):
        text = THEORY.read_text(encoding="utf-8")
        assert "repro.queueing.kernels" in text
        kernel_dir = ROOT / "src" / "repro" / "queueing" / "kernels"
        for mod in ("soa", "reference"):
            assert (kernel_dir / f"{mod}.py").is_file()
            assert f"kernels.{mod}" in text
        assert sorted(p.stem for p in kernel_dir.glob("*.py")) == [
            "__init__", "reference", "soa"
        ], "a kernel module was added or removed; update THEORY.md §8"

    def test_one_kernel_statement_present(self):
        text = THEORY.read_text(encoding="utf-8")
        assert re.search(
            r"`kernels\.reference`.*?is the\s+only kernel",
            text,
            re.DOTALL,
        ), "THEORY.md lost the one-kernel statement"
        assert "precedence `REPRO_SOLVE_KERNEL`" not in text


class TestResilienceChain:
    def test_chain_prose_matches_policy(self):
        text = RESILIENCE.read_text(encoding="utf-8")
        chain = "`" + " → ".join(DEGRADATION_CHAIN) + "`"
        assert chain in text, (
            f"docs/RESILIENCE.md chain mention != {DEGRADATION_CHAIN}"
        )
