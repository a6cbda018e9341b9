import pytest

import digest_cases


@pytest.fixture(scope="session")
def artifact_digests(tmp_path_factory):
    """sha256 of every artifact of the pinned runs (``digest_cases``), run once per session."""
    return digest_cases.run_cases(tmp_path_factory.mktemp("digest_cases"))
