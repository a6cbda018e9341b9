import pytest

import digest_cases


@pytest.fixture(scope="session")
def artifact_digests(tmp_path_factory):
    """sha256 of every artifact of the pinned runs (``digest_cases``), run once per session."""
    return digest_cases.run_cases(tmp_path_factory.mktemp("digest_cases"))


@pytest.fixture(scope="session")
def fig4_ci_run(tmp_path_factory):
    """(directory, manifest) of one ``fig4-ci`` preset run, shared by the tests that only read it.

    A test that reads it must not write into the directory.
    """
    from thzbeam import preset, run_scenario

    out = tmp_path_factory.mktemp("fig4-ci")
    return out, run_scenario(preset("fig4-ci"), out)
