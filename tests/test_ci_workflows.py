"""Every CI workflow file is valid YAML with at least one job.

A workflow that does not parse never runs, and the CI service reports
that only on the web page, not as a failed check.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted(
    (Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.y*ml")
)


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_parses(path):
    doc = yaml.safe_load(path.read_text())
    assert isinstance(doc, dict)
    jobs = doc.get("jobs")
    assert isinstance(jobs, dict) and jobs
    for name, job in jobs.items():
        assert job.get("steps"), f"job {name} has no steps"
