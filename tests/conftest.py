from __future__ import annotations

import re

import pytest

import fixture_gen
from kbvqa.kb import catalog_path, ingest_kb, write_catalog

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


@pytest.fixture(scope="session")
def bundle(tmp_path_factory) -> fixture_gen.FixtureBundle:
    """Standard 100-entry / 20-query fixture with the planted mock script,
    and the KB catalog `kbvqa ingest` writes beside its entries. So
    ingest_kb on the bundle loads through the catalog, whichever tests ran
    before; a test that means the full parse passes use_catalog=False."""
    root = tmp_path_factory.mktemp("fixture")
    bundle = fixture_gen.build_fixture(root)
    _write_bundle_catalog(bundle)
    return bundle


@pytest.fixture(autouse=True)
def _bundle_keeps_its_catalog(request):
    """Write the bundle's catalog again after a test that deleted it, as the
    chain golden run without the catalog does."""
    yield
    if "bundle" in request.fixturenames:
        _write_bundle_catalog(request.getfixturevalue("bundle"))


def _write_bundle_catalog(bundle: fixture_gen.FixtureBundle) -> None:
    if not catalog_path(bundle.entries_path).exists():
        kb = ingest_kb(bundle.entries_path, bundle.kb_manifest, use_catalog=False)
        write_catalog(kb, bundle.entries_path)


@pytest.fixture(scope="session")
def recall_bundle(tmp_path_factory) -> fixture_gen.FixtureBundle:
    """10-query fixture whose gold ranks were planted by hand."""
    root = tmp_path_factory.mktemp("recall_fixture")
    return fixture_gen.build_recall_fixture(root)


@pytest.fixture(scope="session")
def goldens_dir(request):
    return request.config.rootpath / "tests" / "goldens"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.getreports(outcome):
            if getattr(report, "when", "call") != "call" and outcome != "error":
                continue
            m = _CRITERION.search(report.nodeid)
            if m:
                rows.append((int(m.group(1)), m.group(2), outcome != "passed"))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, failed in sorted(rows):
        status = "FAIL" if failed else "PASS"
        terminalreporter.write_line(
            f"criterion {number:02d}: {status}  {label.replace('_', ' ')}"
        )
