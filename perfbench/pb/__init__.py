"""Logic of the perfbench suite, kept apart from process handling so the
tests in perfbench/tests can check it without building anything."""
