"""Every pinned artifact keeps its recorded bytes (see ``digest_cases``)."""

import pytest

import digest_cases


def test_artifacts_keep_their_recorded_digests(artifact_digests):
    key = digest_cases.environment_key()
    table = digest_cases.recorded()
    if key not in table:
        pytest.fail(f"no digests recorded for {key!r}; after checking the artifacts, record "
                    f"them with: {digest_cases.RECORD_COMMAND}")
    expected = table[key]
    moved = sorted(name for name in expected.keys() & artifact_digests.keys()
                   if expected[name] != artifact_digests[name])
    assert not moved, f"artifacts whose bytes moved: {', '.join(moved)}"
    assert sorted(artifact_digests) == sorted(expected), "the set of pinned artifacts changed"
