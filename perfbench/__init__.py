"""Outside-in benchmark of the JABA-SD reproduction (see README.md)."""
