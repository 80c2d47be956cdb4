"""Every analysis command writes the bytes this version committed to."""

from output_digests import DIGESTS, read_digests


def test_every_output_has_its_committed_digest_on_each_read(tmp_path):
    assert read_digests(tmp_path) == {label: [digest] * 3 for label, digest in DIGESTS.items()}
