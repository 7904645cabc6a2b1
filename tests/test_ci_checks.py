"""The CI runner's peak-RSS helper reads each child alone."""

from ci_checks import peak_rss_mb


def test_peak_rss_reads_one_child_alone():
    # A RUSAGE_CHILDREN total would still read the first child's 80 MB, and a
    # child started straight from this process would start at its peak RSS.
    assert peak_rss_mb("-c", "b = b'x' * (80 << 20)") > 80
    assert peak_rss_mb("-c pass") < 40
